package serve_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

type env struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	mr      *mr.Engine
	gen     *ssb.Generator
	lay     *ssb.Layout
}

func newEnv(t *testing.T, workers int, sf float64, mropts mr.Options) *env {
	t.Helper()
	return newEnvOn(t, cluster.Testing(workers), sf, mropts)
}

// newEnvOn is newEnv on a cluster configured by cfg.
func newEnvOn(t *testing.T, cfg cluster.Config, sf float64, mropts mr.Options) *env {
	t.Helper()
	c := cluster.New(cfg)
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(sf, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &env{cluster: c, fs: fs, mr: mr.NewEngine(c, fs, mropts), gen: gen, lay: lay}
}

func (e *env) session(opts serve.Options) *serve.Session {
	return serve.New(e.mr, e.lay.Catalog(), opts)
}

func (e *env) checkNoLeak(t *testing.T) {
	t.Helper()
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("node %s holds %d bytes after session close", n.ID(), used)
		}
	}
}

// tableKeys returns the distinct (dimDir, fingerprint) keys of a query's
// dimension tables: what the cross-query cache builds at most once per node.
func tableKeys(t *testing.T, cat *core.Catalog, q *core.Query) []string {
	t.Helper()
	seen := map[string]bool{}
	var keys []string
	for i := range q.Dims {
		dir, err := cat.DimDir(q.Dims[i].Table)
		if err != nil {
			t.Fatal(err)
		}
		if k := dir + "\x00" + q.Dims[i].Fingerprint(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// mapNodes returns the nodes that ran a map task of the job: the nodes that
// needed the job's dimension tables. The scheduler is free to leave a node
// without a task, so no test may assume it is all of them.
func mapNodes(job *mr.JobResult) []string {
	seen := map[string]bool{}
	var nodes []string
	for _, task := range job.Tasks {
		if strings.HasPrefix(task.TaskID, "m-") && !seen[task.Node] {
			seen[task.Node] = true
			nodes = append(nodes, task.Node)
		}
	}
	return nodes
}

// TestServeConcurrentQueries is the headline serving test: every SSB query
// at once through one session must match the reference executor, each
// dimension table must be built exactly once on each node that ran a map
// task of a query using it, across ALL queries (the cross-query cache
// generalizing the per-job singleflight), and closing the session must
// return every reserved byte.
func TestServeConcurrentQueries(t *testing.T) {
	e := newEnv(t, 3, 0.002, mr.Options{})
	s := e.session(serve.Options{MaxConcurrent: 8})

	queries := ssb.Queries()
	if len(queries) < 8 {
		t.Fatalf("want >= 8 concurrent queries, SSB has %d", len(queries))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	sets := make([]*results.ResultSet, len(queries))
	reps := make([]*core.Report, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *core.Query) {
			defer wg.Done()
			sets[i], reps[i], errs[i] = s.Query(context.Background(), q)
		}(i, q)
	}
	wg.Wait()

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("%s: %v", q.Name, errs[i])
		}
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			t.Fatalf("%s ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(sets[i], want, 1e-9); !ok {
			t.Errorf("%s under serving concurrency: %s", q.Name, why)
		}
	}

	// What the cache guarantees: one build per table per node that needed
	// it. Which nodes needed it is the scheduler's choice (a node may get no
	// map task of some query, or every partition it holds may be pruned), so
	// it is read from the job reports, not assumed.
	needed := map[string]bool{}
	for i, q := range queries {
		for _, node := range mapNodes(reps[i].Job) {
			for _, key := range tableKeys(t, e.lay.Catalog(), q) {
				needed[key+"\x00"+node] = true
			}
		}
	}
	stats := s.Stats()
	if stats.Builds != int64(len(needed)) {
		t.Errorf("cache built %d tables, want exactly %d (distinct table x node pairs over the nodes that ran a map task)", stats.Builds, len(needed))
	}
	if stats.Evictions != 0 {
		t.Errorf("unexpected evictions (%d) under default budget", stats.Evictions)
	}
	if stats.Hits == 0 {
		t.Errorf("no cache hits across %d overlapping queries", len(queries))
	}
	if stats.Admitted != int64(len(queries)) {
		t.Errorf("admitted %d, want %d", stats.Admitted, len(queries))
	}
	if stats.ResidentBytes == 0 {
		t.Errorf("no resident table bytes after %d queries", len(queries))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rb := s.Stats().ResidentBytes; rb != 0 {
		t.Errorf("%d bytes still resident after close", rb)
	}
	e.checkNoLeak(t)

	if _, _, err := s.Query(context.Background(), queries[0]); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Query after Close: got %v, want ErrClosed", err)
	}
	if _, _, err := s.Query(context.Background(), &core.Query{Name: "invalid"}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("invalid Query after Close: got %v, want ErrClosed", err)
	}
}

// TestServeAdmissionSerializes proves the admission controller serializes
// two queries whose combined cost exceeds the budget. Q1.1 and Q2.1 share no
// dimension table and every table is cold, so each query costs the exact
// size of its own tables (Engine.DimTableBytes) until it has run: a budget
// that holds either query alone but not both must never let them overlap.
func TestServeAdmissionSerializes(t *testing.T) {
	e := newEnv(t, 2, 0.002, mr.Options{})
	cat := e.lay.Catalog()
	sizer := core.New(e.mr, cat, core.Options{})
	var queries []*core.Query
	var costs []int64
	seen := map[string]bool{}
	for _, name := range []string{"Q1.1", "Q2.1"} {
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tableKeys(t, cat, q) {
			if seen[k] {
				t.Fatalf("fixture: %s shares a dimension table with an earlier query", name)
			}
			seen[k] = true
		}
		queries = append(queries, q)
		costs = append(costs, coldCost(t, sizer, cat, q))
	}
	if costs[0] == 0 || costs[1] == 0 {
		t.Fatalf("fixture: cold costs %v, want both non-zero", costs)
	}
	s := e.session(serve.Options{
		MaxConcurrent:     4,
		AdmissionBudget:   max(costs[0], costs[1]),
		ResultCacheBudget: -1,
	})
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = s.Query(context.Background(), q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", queries[i].Name, err)
		}
	}
	stats := s.Stats()
	if stats.PeakConcurrent != 1 {
		t.Errorf("peak concurrency %d: queries costing %v bytes ran together under a %d-byte budget",
			stats.PeakConcurrent, costs, max(costs[0], costs[1]))
	}
	if stats.Admitted != 2 {
		t.Errorf("admitted %d, want 2", stats.Admitted)
	}
}

// coldCost is what admission charges q while none of its tables is
// resident: the exact size of each of its dimension tables.
func coldCost(t *testing.T, eng *core.Engine, cat *core.Catalog, q *core.Query) int64 {
	t.Helper()
	l, err := core.LogicalOf(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(l)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := eng.Pin(p.Shape)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	var cost int64
	for _, d := range pin.DimSpecs(p.Steps) {
		b, err := eng.DimTableBytes(&d)
		if err != nil {
			t.Fatal(err)
		}
		cost += b
	}
	return cost
}

// cancelOnSpan cancels a context the first time a span with the given name
// is emitted — a deterministic way to cancel a query provably mid-flight.
type cancelOnSpan struct {
	name   string
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnSpan) Emit(sp obs.Span) {
	if sp.Name == c.name {
		c.once.Do(c.cancel)
	}
}

// TestServeCancellationReleasesMemory cancels a query mid-flight — right
// after its first hash-table build span — and verifies the error is the
// typed cancellation and that closing the session leaves MemoryUsed() == 0
// on every node.
func TestServeCancellationReleasesMemory(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnSpan{name: obs.PhaseHashBuild, cancel: cancel}
	e := newEnv(t, 2, 0.002, mr.Options{Tracer: obs.NewTracer(sink)})
	s := e.session(serve.Options{})

	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Query(ctx, q)
	if err == nil {
		t.Fatal("canceled query returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
	if !errors.Is(err, mr.ErrCanceled) {
		t.Errorf("error %v does not match mr.ErrCanceled", err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)

	// The session still serves other callers' queries after one cancel: a
	// fresh session on the same engine runs the query to completion.
	s2 := e.session(serve.Options{})
	defer s2.Close()
	rs, _, err := s2.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.Run(e.gen, q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("after cancel: %s", why)
	}
}

// TestServeCacheHitSkipsHashBuild runs the same query twice; the second run
// must probe cached tables without emitting a single hash-build span.
func TestServeCacheHitSkipsHashBuild(t *testing.T) {
	sink := obs.NewMemorySink()
	e := newEnv(t, 2, 0.002, mr.Options{Tracer: obs.NewTracer(sink)})
	// Result cache off: the warm run must re-execute and probe the TABLE
	// cache, not answer from cached rows.
	s := e.session(serve.Options{ResultCacheBudget: -1})
	defer s.Close()

	q, err := ssb.QueryByName("Q2.3")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := countSpans(sink.Spans(), obs.PhaseHashBuild); n == 0 {
		t.Fatalf("cold run emitted no %s spans", obs.PhaseHashBuild)
	}

	sink.Reset()
	rs, _, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSpans(sink.Spans(), obs.PhaseHashBuild); n != 0 {
		t.Errorf("warm run emitted %d %s spans, want 0", n, obs.PhaseHashBuild)
	}
	if hits := s.Stats().Hits; hits == 0 {
		t.Errorf("warm run recorded no cache hits")
	}
	want, err := refexec.Run(e.gen, q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("warm run: %s", why)
	}
}

// TestServeQueueWaitObserved checks the admission wait surfaces through the
// obs layer: every admitted query contributes one admission-wait span and
// one histogram sample.
func TestServeQueueWaitObserved(t *testing.T) {
	sink := obs.NewMemorySink()
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Tracer: obs.NewTracer(sink), Metrics: reg})
	s := e.session(serve.Options{})
	defer s.Close()

	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := countSpans(sink.Spans(), obs.PhaseAdmissionWait); n != 1 {
		t.Errorf("got %d %s spans, want 1", n, obs.PhaseAdmissionWait)
	}
	if c := reg.Histogram("serve.admission_wait_ns").Count(); c != 1 {
		t.Errorf("admission-wait histogram has %d samples, want 1", c)
	}
}

func countSpans(spans []obs.Span, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestServeStagedFallbackUsesTableCache runs a query through a session whose
// nodes hold the largest of its dimension tables but not all four at once:
// the star plan exhausts node memory and the engine re-runs the shape
// staged. The staged passes must take their tables from the session's cache
// like the star job does — one table pinned at a time, earlier ones evicted
// to make room — so afterwards every byte reserved on a node is a resident
// cached table: no private build, no second reservation.
func TestServeStagedFallbackUsesTableCache(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := core.BuildDimTables(q.Dims, func(tbl string, fn func(records.Record) error) error {
		return gen.Each(tbl, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, h := range tables {
		sum += h.MemBytes
		if h.MemBytes > max {
			max = h.MemBytes
		}
	}
	budget := max + (sum-max)/4
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: budget})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 13})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), serve.Options{CacheBudget: budget})

	rs, rep, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.Run(gen, q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("staged fallback through the session: %s", why)
	}
	if rep.Passes < 2 {
		t.Fatal("the star plan fit; the fixture's node budget should have forced the staged fallback")
	}
	st := s.Stats()
	if built := rep.Job.Counters.Get(core.CtrHashTablesBuilt); built == 0 || built > st.Builds {
		t.Errorf("staged passes report %d table builds, the session cache %d: every build should be the cache's", built, st.Builds)
	}
	if st.Evictions == 0 {
		t.Error("no cached table was evicted; the passes did not cycle tables through the cache budget")
	}
	var reserved int64
	for _, n := range c.Nodes() {
		reserved += n.MemoryUsed()
	}
	if reserved != st.ResidentBytes {
		t.Errorf("nodes hold %d reserved bytes, the cache %d resident: a pass reserved outside the cache", reserved, st.ResidentBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("node %s holds %d bytes after session close", n.ID(), used)
		}
	}
	if files := fs.List("/tmp/clydesdale/"); len(files) != 0 {
		t.Errorf("leftover staged intermediates: %v", files)
	}
}
