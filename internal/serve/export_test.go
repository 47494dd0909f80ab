package serve

import "net/http"

// Handler is the debug server's mux, for tests that serve it themselves.
func (d *DebugServer) Handler() http.Handler { return d.mux }
