package serve_test

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// reservedBytes is what the cluster's nodes hold reserved, together.
func reservedBytes(c *cluster.Cluster) int64 {
	var n int64
	for _, node := range c.Nodes() {
		n += node.MemoryUsed()
	}
	return n
}

// runAll runs every SSB query twice through s and returns the reports.
func runAll(t *testing.T, s *serve.Session) []*core.Report {
	t.Helper()
	var reps []*core.Report
	for range 2 {
		for _, q := range ssb.Queries() {
			_, rep, err := s.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			reps = append(reps, rep)
		}
	}
	return reps
}

// TestSessionsShareOneTableCache: two sessions over one engine, on the same
// queries, hold the resident bytes and make the node builds of one session.
// Each table is built once on each node that ran a map task of a query using
// it, whichever session ran the query, and what the nodes hold reserved is
// the one cache's residency, which both sessions report.
func TestSessionsShareOneTableCache(t *testing.T) {
	e := newEnv(t, 3, 0.002, mr.Options{})
	first := e.session(serve.Options{ResultCacheBudget: -1})
	second := e.session(serve.Options{ResultCacheBudget: -1})
	reps := append(runAll(t, first), runAll(t, second)...)

	needed := map[string]bool{}
	var builds int64
	for i, rep := range reps {
		q := ssb.Queries()[i%len(ssb.Queries())]
		builds += rep.Job.Counters.Get(core.CtrHashTablesBuilt)
		for _, node := range mapNodes(rep.Job) {
			for _, key := range tableKeys(t, e.lay.Catalog(), q) {
				needed[key+"\x00"+node] = true
			}
		}
	}
	if builds != int64(len(needed)) {
		t.Errorf("the two sessions made %d node builds, want %d (distinct table x node pairs over the nodes that ran a map task)", builds, len(needed))
	}
	a, b := first.Stats(), second.Stats()
	if held := reservedBytes(e.cluster); held != a.ResidentBytes || held != b.ResidentBytes || held == 0 {
		t.Errorf("nodes hold %d reserved bytes, the sessions report %d and %d resident: want one cache's", held, a.ResidentBytes, b.ResidentBytes)
	}
	first.Close()
	if reservedBytes(e.cluster) == 0 {
		t.Error("closing one of two sessions released the cache the other still serves from")
	}
	second.Close()
	e.checkNoLeak(t)
}

// TestSessionsFitOneNodeMemory: at 256 000 bytes per node, two sessions
// running every SSB query twice each fit, because the node's cached tables
// are held once, not once per session.
func TestSessionsFitOneNodeMemory(t *testing.T) {
	cfg := cluster.Testing(3)
	cfg.MemoryPerNode = 256_000
	e := newEnvOn(t, cfg, 0.002, mr.Options{})
	first := e.session(serve.Options{ResultCacheBudget: -1})
	defer first.Close()
	second := e.session(serve.Options{ResultCacheBudget: -1})
	defer second.Close()
	for range 2 {
		for _, q := range ssb.Queries() {
			for _, s := range []*serve.Session{first, second} {
				if _, _, err := s.Query(context.Background(), q); err != nil {
					t.Errorf("%s: %v", q.Name, err)
				}
			}
		}
	}
}

// TestSessionsShareOneAdmitter: while one session's query is held running,
// a second session's query that does not fit what is left of the admission
// budget queues, whatever budget the second session asked for, and the
// reserved bytes never exceed the one budget.
func TestSessionsShareOneAdmitter(t *testing.T) {
	hold := &holdOnSpan{name: obs.PhaseMap, held: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Tracer: obs.NewTracer(hold), Metrics: reg})
	cat := e.lay.Catalog()
	sizer := core.New(e.mr, cat, core.Options{})
	var queries []*core.Query
	var costs []int64
	for _, name := range []string{"Q1.1", "Q2.1"} {
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		queries, costs = append(queries, q), append(costs, coldCost(t, sizer, cat, q))
	}
	budget := max(costs[0], costs[1])
	first := e.session(serve.Options{AdmissionBudget: budget, ResultCacheBudget: -1})
	defer first.Close()
	second := e.session(serve.Options{AdmissionBudget: 1 << 40, ResultCacheBudget: -1})
	defer second.Close()
	reserved := func() int64 {
		r := reg.Snapshot().Gauges["serve.admission.reserved_bytes"]
		if r > budget {
			t.Errorf("serve.admission.reserved_bytes = %d over a budget of %d", r, budget)
		}
		return r
	}

	hold.armed.Store(true)
	done := make(chan error, 2)
	go func() {
		_, _, err := first.Query(context.Background(), queries[0])
		done <- err
	}()
	<-hold.held
	if r := reserved(); r != costs[0] {
		t.Errorf("held %s reserves %d, want its cold cost %d", queries[0].Name, r, costs[0])
	}
	go func() {
		_, _, err := second.Query(context.Background(), queries[1])
		done <- err
	}()
	for second.Stats().Queued == 0 {
		select {
		case err := <-done:
			close(hold.release)
			t.Fatalf("the second session's %s (cost %d) ran (err %v) beside a held query of cost %d under a %d-byte budget",
				queries[1].Name, costs[1], err, costs[0], budget)
		case <-time.After(time.Millisecond):
		}
	}
	reserved()
	close(hold.release)
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if r := reserved(); r != 0 {
		t.Errorf("%d bytes reserved with no query running", r)
	}
	if st := second.Stats(); st.PeakConcurrent != 1 || st.Admitted != 2 {
		t.Errorf("admission peaked at %d running and admitted %d, want 1 and 2", st.PeakConcurrent, st.Admitted)
	}
}

// TestLaterCacheBudgetIgnored: the first session sizes the engine's table
// cache, so a second session asking for a larger CacheBudget still keeps
// each node's cached tables within the first's.
func TestLaterCacheBudgetIgnored(t *testing.T) {
	e := newEnv(t, 2, 0.002, mr.Options{})
	cat := e.lay.Catalog()
	sizer := core.New(e.mr, cat, core.Options{})
	var budget int64
	for _, q := range ssb.Queries() {
		budget = max(budget, coldCost(t, sizer, cat, q))
	}
	first := e.session(serve.Options{CacheBudget: budget})
	defer first.Close()
	second := e.session(serve.Options{CacheBudget: 1 << 40, ResultCacheBudget: -1})
	defer second.Close()
	runAll(t, second)
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used > budget {
			t.Errorf("node %s holds %d bytes of tables, over the first session's cache budget of %d", n.ID(), used, budget)
		}
	}
	if ev := second.Stats().Evictions; ev == 0 {
		t.Error("no cached table was evicted: the fixture's budget bounds nothing")
	}
}

// TestClosedSessionIsCollected: nothing the engine keeps — its registry,
// tracer, table cache or filesystem — holds a closed session, so a closed
// session nobody references is garbage, whatever it did while open.
func TestClosedSessionIsCollected(t *testing.T) {
	e := newEnv(t, 2, 0.001, mr.Options{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()})
	other := e.session(serve.Options{})
	defer other.Close()
	closed := func() weak.Pointer[serve.Session] {
		s := e.session(serve.Options{IngestPartitionRows: 100})
		q, err := ssb.QueryByName("Q2.1")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		rows := materialize(e.gen, e.gen.LineorderRows(), e.gen.LineorderRows()+10, -1)
		if _, err := s.RollIn(ssb.TableLineorder, emitRows(rows)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RollIn(ssb.TableCustomer, emitRows([]records.Record{e.gen.Customer(e.gen.CustomerRows())})); err != nil {
			t.Fatal(err)
		}
		w := weak.Make(s)
		s.Close()
		return w
	}()
	runtime.GC()
	if closed.Value() != nil {
		t.Error("a closed, unreferenced session is still reachable")
	}
}

// TestClosedSessionsLeaveOneResultCount: ten sessions opened on one
// engine, each answering one query from its result cache, and closed in
// turn leave each result-cache count with one source in the registry, the
// sum of what every session counted, and no closed session's cache
// reachable; the levels read the open sessions' caches only.
func TestClosedSessionsLeaveOneResultCount(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.001, mr.Options{Metrics: reg})
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	refs := func() (caches []func() bool) {
		for range 10 {
			s := e.session(serve.Options{})
			for range 2 { // a miss, then a hit
				if _, _, err := s.Query(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats()
			hits, misses = hits+st.ResultHits, misses+st.ResultMisses
			rc := s.ResultCacheRef()
			caches = append(caches, func() bool { return rc.Value() != nil })
			s.Close()
		}
		return caches
	}()
	runtime.GC()
	for i, held := range refs {
		if held() {
			t.Errorf("closed session %d's result cache is still reachable", i)
		}
	}
	for _, name := range []string{"serve.result_cache.hits", "serve.result_cache.misses", "serve.result_cache.invalidations"} {
		if n := serve.CounterSources(reg, name); n != 1 {
			t.Errorf("%s has %d sources after 10 sessions, want 1", name, n)
		}
	}
	snap := reg.Snapshot()
	if hits != 10 || misses != 10 || snap.Counters["serve.result_cache.hits"] != hits || snap.Counters["serve.result_cache.misses"] != misses {
		t.Errorf("the registry counts %d hits and %d misses; the sessions counted %d and %d, want 10 and 10",
			snap.Counters["serve.result_cache.hits"], snap.Counters["serve.result_cache.misses"], hits, misses)
	}
	if b, n := snap.Gauges["serve.result_cache.resident_bytes"], snap.Gauges["serve.result_cache.entries"]; b != 0 || n != 0 {
		t.Errorf("with every session closed the result caches hold %d bytes in %d entries, want 0", b, n)
	}
	open := e.session(serve.Options{})
	defer open.Close()
	if _, _, err := open.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if b := snap.Gauges["serve.result_cache.resident_bytes"]; b != open.Stats().ResultBytes || b == 0 {
		t.Errorf("serve.result_cache.resident_bytes = %d, the open session caches %d", b, open.Stats().ResultBytes)
	}
}

// TestProfiledSessionsShareOneCollector: ten profiled sessions opened and
// closed in turn leave one trace collector on the engine's tracer.
func TestProfiledSessionsShareOneCollector(t *testing.T) {
	tracer := obs.NewTracer()
	e := newEnv(t, 2, 0.001, mr.Options{Tracer: tracer})
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		s := e.session(serve.Options{ProfileDepth: 4})
		if _, _, err := s.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if len(s.Profiles().Recent()) != 1 {
			t.Fatalf("session profiled %d queries, want 1", len(s.Profiles().Recent()))
		}
		s.Close()
	}
	if n := serve.TraceCollectors(tracer); n != 1 {
		t.Errorf("the engine's tracer holds %d trace collectors, want 1", n)
	}
}
