package serve

import (
	"net/http"

	"clydesdale/internal/colstore"
)

// Handler is the debug server's mux, for tests that serve it themselves.
func (d *DebugServer) Handler() http.Handler { return d.mux }

// PinFact pins the fact table's current partitions, as a running query does.
func (s *Session) PinFact() (*colstore.Snapshot, error) {
	return s.eng.Snapshots().Acquire(s.cat.FactDir)
}
