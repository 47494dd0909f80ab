package serve

import (
	"net/http"
	"reflect"
	"weak"

	"clydesdale/internal/colstore"
	"clydesdale/internal/obs"
)

// Handler is the debug server's mux, for tests that serve it themselves.
func (d *DebugServer) Handler() http.Handler { return d.mux }

// PinFact pins the fact table's current partitions, as a running query does.
func (s *Session) PinFact() (*colstore.Snapshot, error) {
	return s.eng.Snapshots().Acquire(s.cat.FactDir)
}

// TraceCollectors counts the trace collectors among t's sinks.
func TraceCollectors(t *obs.Tracer) int {
	sinks, n := reflect.ValueOf(t).Elem().FieldByName("sinks"), 0
	for i := range sinks.Len() {
		if sinks.Index(i).Elem().Type() == reflect.TypeFor[*obs.TraceCollector]() {
			n++
		}
	}
	return n
}

// CounterSources counts the sources registered under a counter name of reg.
func CounterSources(reg *obs.Registry, name string) int {
	return reflect.ValueOf(reg).Elem().FieldByName("counterFuncs").MapIndex(reflect.ValueOf(name)).Len()
}

// ResultCacheRef is a weak pointer to the session's result cache.
func (s *Session) ResultCacheRef() weak.Pointer[resultCache] { return weak.Make(s.rcache) }
