// Package serve is the query-serving layer over core.Engine: it makes
// concurrent star-join workloads first-class. The paper's §8 leaves the
// multi-workload setting as future work; this layer supplies the three
// pieces that setting needs. (1) A cross-query dimension hash-table cache:
// per-node tables keyed by (dimDir, DimSpec fingerprint) survive job
// completion in a residency-accounted LRU, so query N+1 probes the tables
// query N built. (2) Admission control: a query's estimated table memory is
// checked against a per-node budget before submission, and over-budget
// queries queue FIFO under a concurrency cap instead of racing node
// reservations into deadlock-by-OOM. (3) Cancellation: the caller's context
// flows through core.Engine.Run and mr.Engine.Submit down to task attempts,
// so abandoning a query provably releases every byte it reserved.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// ErrClosed is returned by Query after Close; check with errors.Is.
var ErrClosed = errors.New("serve: session closed")

// Options configures a Session.
type Options struct {
	// Engine is the underlying core engine configuration. Tables is
	// overwritten with the session's cross-query table cache.
	Engine core.Options
	// MaxConcurrent caps queries executing simultaneously; <= 0 uses 4.
	MaxConcurrent int
	// QueueDepth bounds queries waiting for admission before Query returns
	// ErrQueueFull; < 0 means no queue (immediate rejection), 0 uses 32.
	QueueDepth int
	// CacheBudget is the per-node byte bound on resident cached tables;
	// <= 0 uses half the node memory.
	CacheBudget int64
	// AdmissionBudget is the per-node byte budget admission reserves
	// against; <= 0 uses CacheBudget.
	AdmissionBudget int64
	// ProfileDepth is the flight recorder's capacity: how many recent query
	// profiles the session retains (the debug server's /profilez history).
	// 0 uses 16; negative disables per-query profiling entirely (no trace
	// collection, no assembly cost).
	ProfileDepth int
	// ResultCacheBudget bounds driver-resident cached result bytes for the
	// fingerprint result cache; 0 uses 64 MiB, negative disables the cache.
	ResultCacheBudget int64
	// IngestPartitionRows sizes the CIF partitions fact roll-in batches are
	// staged into; <= 0 uses colstore.DefaultPartitionRows. Small values
	// favor ingest latency and lean on the compactor to restore scan-sized
	// partitions.
	IngestPartitionRows int64
}

// Stats is a point-in-time snapshot of the session's serving counters.
type Stats struct {
	// Table cache.
	Hits, Misses, Builds, Evictions int64
	ResidentBytes                   int64
	// Admission control.
	Admitted, Rejected int64
	Running, Queued    int
	PeakConcurrent     int
	// Result cache. ResultInvalidations counts the entries a lookup dropped
	// for being older than a table's current version (and those Close drops).
	ResultHits, ResultSubsumedHits, ResultMisses int64
	ResultEvictions, ResultInvalidations         int64
	ResultBytes                                  int64
	// Ingestion.
	RollIns, RollInRows, RollInFailures int64
	Compactions, CompactedRows          int64
	PartitionsPublished                 int64 // roll-in + compaction output
	PartitionsRetired                   int64 // compaction input + retention
	TableInvalidations                  int64 // cached dim tables reclaimed because a newer version of their table superseded them
}

// Session serves queries over one cluster, sharing dimension hash tables
// across them. Safe for concurrent use.
type Session struct {
	mrEng  *mr.Engine
	cat    *core.Catalog
	eng    *core.Engine
	cache  *core.TableCache
	adm    *admitter
	rcache *resultCache // nil when Options.ResultCacheBudget < 0
	opts   Options
	slos   [len(sloClasses)]atomic.Pointer[sloMetrics] // by classIndex

	// collector buckets the session's spans by trace; recorder keeps the
	// recently assembled profiles. Both nil when profiling is disabled.
	collector *obs.TraceCollector
	recorder  *obs.FlightRecorder

	mu          sync.Mutex
	closed      bool
	wg          sync.WaitGroup
	stopCompact func() // stops the background compactor; nil unless started

	rollIns, rollInRows, rollInFailures atomic.Int64
	compactions, compactedRows          atomic.Int64
	compactionFailures, retentions      atomic.Int64
	partsPublished, partsRetired        atomic.Int64
}

// New creates a serving session over a MapReduce engine and catalog.
func New(mrEngine *mr.Engine, cat *core.Catalog, opts Options) *Session {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 4
	}
	switch {
	case opts.QueueDepth == 0:
		opts.QueueDepth = 32
	case opts.QueueDepth < 0:
		opts.QueueDepth = 0
	}
	if opts.CacheBudget <= 0 {
		opts.CacheBudget = mrEngine.Cluster().Config().MemoryPerNode / 2
	}
	if opts.AdmissionBudget <= 0 {
		opts.AdmissionBudget = opts.CacheBudget
	}
	// The serving layer's accounting (SLO histograms, live gauges, /metrics)
	// needs a registry; give the engine one if its owner didn't.
	if mrEngine.Metrics() == nil {
		mrEngine.SetMetrics(obs.NewRegistry())
	}
	reg := mrEngine.Metrics()
	cache := core.NewTableCache(mrEngine.Cluster(), opts.CacheBudget)
	engOpts := opts.Engine
	engOpts.Tables = cache
	var rcache *resultCache
	if opts.ResultCacheBudget >= 0 {
		budget := opts.ResultCacheBudget
		if budget == 0 {
			budget = 64 << 20
		}
		rcache = newResultCache(budget, reg)
	}
	s := &Session{
		mrEng:  mrEngine,
		cat:    cat,
		eng:    core.New(mrEngine, cat, engOpts),
		cache:  cache,
		rcache: rcache,
		adm:    newAdmitter(opts.AdmissionBudget, opts.MaxConcurrent, opts.QueueDepth, reg),
		opts:   opts,
	}
	s.observe(reg)
	if opts.ProfileDepth >= 0 {
		// Profiling needs the span stream: attach a per-trace collector,
		// creating the tracer when the owner didn't supply one.
		if mrEngine.Tracer() == nil {
			mrEngine.SetTracer(obs.NewTracer())
		}
		s.collector = obs.NewTraceCollector(0, 0)
		mrEngine.Tracer().AddSink(s.collector)
		s.recorder = obs.NewFlightRecorder(opts.ProfileDepth)
	}
	return s
}

// observe shows the session's ingest counts and its levels in reg, read
// from the state that keeps them. Counts add up over the sessions of one
// engine; the pins, unreaped partitions and table versions are the
// filesystem registry's, every other level the newest session's.
func (s *Session) observe(reg *obs.Registry) {
	for name, c := range map[string]*atomic.Int64{
		"rows":                &s.rollInRows,
		"roll_ins":            &s.rollIns,
		"roll_in_failures":    &s.rollInFailures,
		"compactions":         &s.compactions,
		"compaction_failures": &s.compactionFailures,
		"retentions":          &s.retentions,
	} {
		reg.CounterFunc("serve.ingest."+name, c.Load)
	}
	reg.GaugeFunc("serve.ingest.snapshot_pins", func() int64 {
		pins, _ := s.eng.Snapshots().Held(s.cat.FactDir)
		return int64(pins)
	})
	reg.GaugeFunc("serve.ingest.partitions_unreaped", func() int64 {
		_, unreaped := s.eng.Snapshots().Held(s.cat.FactDir)
		return int64(unreaped)
	})
	reg.GaugeFunc("serve.cache.resident_bytes", func() int64 { return s.cache.Stats().ResidentBytes })
	tables := []string{s.cat.FactName}
	for t := range s.cat.DimDirs {
		tables = append(tables, t)
	}
	for i, t := range tables {
		reg.GaugeFunc("serve.table_version."+t, func() int64 {
			cur, err := s.eng.CurrentVersions(tables)
			if err != nil {
				return 0
			}
			return int64(cur.At[i])
		})
	}
}

// Metrics returns the registry the session's accounting lands in.
func (s *Session) Metrics() *obs.Registry { return s.mrEng.Metrics() }

// Profiles returns the flight recorder of recent query profiles, or nil
// when profiling is disabled (Options.ProfileDepth < 0).
func (s *Session) Profiles() *obs.FlightRecorder { return s.recorder }

// QueryClass buckets a query name into an SLO class: the SSB flights map to
// "flight-1" … "flight-4" ("Q3.4" → "flight-3"), anything else is "adhoc".
// Per-class latency histograms and shed/error counters land in the registry
// under "serve.slo.<class>.*".
func QueryClass(name string) string { return sloClasses[classIndex(name)] }

var sloClasses = [...]string{"adhoc", "flight-1", "flight-2", "flight-3", "flight-4", "flight-5", "flight-6", "flight-7", "flight-8", "flight-9"}

func classIndex(name string) int {
	if len(name) >= 2 && name[0] == 'Q' && name[1] >= '1' && name[1] <= '9' {
		return int(name[1] - '0')
	}
	return 0
}

// sloMetrics is one SLO class's accounting in the registry.
type sloMetrics struct {
	queries, shed, errors *obs.Counter
	latency               *obs.Histogram
}

// sloOf returns the accounting of name's SLO class, resolving its handles
// on the class's first query, so that /slo lists the classes that ran.
func (s *Session) sloOf(name string) *sloMetrics {
	i := classIndex(name)
	if c := s.slos[i].Load(); c != nil {
		return c
	}
	m, prefix := s.Metrics(), "serve.slo."+QueryClass(name)+"."
	c := &sloMetrics{
		queries: m.Counter(prefix + "queries"),
		shed:    m.Counter(prefix + "shed"),
		errors:  m.Counter(prefix + "errors"),
		latency: m.Histogram(prefix + "latency_ns"),
	}
	s.slos[i].Store(c) // a racing first query stores the same handles
	return c
}

// record counts one query outcome: "ok" with its latency, "shed", or an
// error.
func (c *sloMetrics) record(outcome string, latency time.Duration) {
	c.queries.Inc()
	switch outcome {
	case "ok":
		c.latency.ObserveDuration(latency)
	case "shed":
		c.shed.Inc()
	default:
		c.errors.Inc()
	}
}

// Query runs one star query: LogicalOf lifts it into the plan IR, QueryPlan
// serves that. A query that does not validate is an error of its class, and
// a closed session answers ErrClosed whatever it is asked.
func (s *Session) Query(ctx context.Context, q *core.Query) (*results.ResultSet, *core.Report, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, nil, ErrClosed
	}
	l, err := core.LogicalOf(q, s.cat)
	if err != nil {
		s.sloOf(q.Name).record("error", 0)
		return nil, nil, err
	}
	return s.QueryPlan(ctx, l)
}

// QueryPlan runs one bound logical plan — a star or a snowflake — through
// the result cache, admission control and the shared table cache. It blocks
// while queued; ctx cancels both the wait and, once running, the query
// itself. ctx also carries the tenant identity (WithTenant) the admission
// controller fair-shares on. Each call is one trace: the session emits the
// root "query" span, every job/task/read span the query causes parents into
// it via the context, and the assembled profile lands in the flight
// recorder.
func (s *Session) QueryPlan(ctx context.Context, l *plan.Logical) (rs *results.ResultSet, rep *core.Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	slo := s.sloOf(l.Name)
	tenant := TenantFrom(ctx)
	qstart := time.Now()
	var sc obs.SpanContext
	if s.mrEng.Tracer().Enabled() {
		sc = obs.NewTrace()
		ctx = obs.ContextWith(ctx, sc)
	}
	// Every exit past this point records one SLO outcome and emits the
	// root span. cacheOutcome is the root's result_cache attribute: empty
	// until the cache lookup returns.
	cacheOutcome := ""
	defer func() {
		switch {
		case err == nil:
			slo.record("ok", time.Since(qstart))
		case errors.Is(err, ErrQueueFull):
			slo.record("shed", 0)
		default:
			slo.record("error", 0)
		}
		s.finishTrace(sc, l.Name, qstart, err, rep, cacheOutcome)
	}()

	// Decompose once: the one shape supplies the result-cache key, the
	// effective ordering and, on a miss only, the physical plan.
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, nil, err
	}

	// Result cache first: a hit (exact or by subsumption) answers without
	// touching admission or MapReduce at all. A miss leaves us owning the
	// singleflight placeholder — concurrent equal queries block on it, so
	// the publish below (or the abort on any failure path) must always run.
	// An entry answers only if no table has moved past the version it was
	// computed from; the current versions are counters, read without a pin.
	// Ordering is not part of the cache identity: a hit comes back in this
	// statement's order, sorted only if the entry's rows are in another.
	var cachePublish func(*results.ResultSet, core.Versions)
	if s.rcache == nil {
		cacheOutcome = "off"
	} else {
		key := plan.KeyOf(sh)
		var (
			crs     *results.ResultSet
			read    core.Versions
			publish func(*results.ResultSet, core.Versions)
		)
		cur, lerr := s.eng.CurrentVersions(key.Tables)
		if lerr == nil {
			crs, cacheOutcome, read, publish, lerr = s.rcache.lookup(ctx, &key, core.Orders(sh), cur)
		}
		if lerr != nil {
			// A failed lookup answers no outcome.
			return nil, nil, fmt.Errorf("serve: %s: %w", l.Name, lerr)
		}
		if cacheOutcome != "miss" {
			return crs, &core.Report{
				Query: l.Name,
				// No job ran; synthesize empty counters so report
				// consumers need no cache-hit special case.
				Job:   &mr.JobResult{Counters: mr.NewCounters()},
				Total: time.Since(qstart),
				Read:  read,
			}, nil
		}
		cachePublish = publish
	}
	defer func() {
		if cachePublish != nil {
			cachePublish(nil, core.Versions{}) // not cached: unblock singleflight waiters
		}
	}()

	// Lower on a miss only: the pipeline, its steps and passes are what the
	// pin, the admission cost and the execution need.
	p, err := sh.Lower()
	if err != nil {
		return nil, nil, err
	}

	// A miss: pin the one {table → version} vector the admission estimate,
	// every job of the plan and the cached rows' label all read.
	pin, err := s.eng.Pin(sh)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %s: %w", l.Name, err)
	}
	defer pin.Release()

	cost, err := s.admissionCost(l.Name, pin.DimSpecs(p.Steps))
	if err != nil {
		return nil, nil, err
	}

	waitStart := time.Now()
	release, err := s.adm.admit(ctx, tenant, cost)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %s: %w", l.Name, err)
	}
	defer release()
	s.observeQueueWait(sc, l.Name, waitStart)

	rs, rep, err = s.eng.RunPlanAt(ctx, p, pin)
	if err == nil && cachePublish != nil {
		cachePublish(rs, pin.Read)
		cachePublish = nil
	}
	return rs, rep, err
}

// InvalidateTable tells the session that a writer outside it changed the
// named table (appended fact partitions or dimension part files): the table
// gets a new version, so nothing derived from the old one answers a later
// query. RollIn, RetainFact and CompactFact publish their own versions and
// need no such call.
func (s *Session) InvalidateTable(table string) error {
	dir := s.cat.FactDir
	if table != s.cat.FactName {
		var err error
		if dir, err = s.cat.DimDir(table); err != nil {
			return err
		}
	}
	s.eng.Snapshots().Bump(dir)
	return nil
}

// RollIn appends a batch of rows to the named table by publishing a new
// version of it: fact rows stage into fresh CIF partitions that publish in
// one atomic swap, dimension rows into the master row table's next part
// file. A query pins the version of every table it reads at plan time, so it
// computes over the pre- or post-batch state of each, never a mix, and
// everything derived from a table is keyed by the version it was derived
// from, so RollIn tells no cache anything. A nil error means the whole batch
// is visible; on error, or for an empty batch, nothing was published.
// Roll-ins serialize with each other and with compaction/retention, in this
// session and every other over the filesystem, not with queries.
func (s *Session) RollIn(table string, rows func(emit func(records.Record) error) error) (int64, error) {
	end, err := s.beginWrite()
	if err != nil {
		return 0, err
	}
	defer end()
	var (
		n     int64
		parts []string
	)
	if table == s.cat.FactName {
		n, parts, err = s.eng.Snapshots().RollIn(s.cat.FactDir, s.opts.IngestPartitionRows, rows)
	} else {
		var dir string
		if dir, err = s.cat.DimDir(table); err != nil {
			return 0, err
		}
		n, err = s.eng.Snapshots().AppendRows(dir, rows)
	}
	if err != nil {
		s.rollInFailures.Add(1)
		return 0, fmt.Errorf("serve: roll-in %s: %w", table, err)
	}
	if n == 0 {
		return 0, nil
	}
	s.partsPublished.Add(int64(len(parts)))
	s.rollIns.Add(1)
	s.rollInRows.Add(n)
	return n, nil
}

// beginWrite enters the write path: it refuses a closed session, and
// otherwise holds the session open until end is called. Writers are
// serialized by the filesystem's registry, across every session over it.
func (s *Session) beginWrite() (end func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.wg.Add(1)
	return s.wg.Done, nil
}

// CompactFact runs one compaction pass over the fact table: small roll-in
// partitions rewrite into full-size re-clustered ones with fresh zone
// maps, exchanged in one atomic swap (see colstore.Compact). The row
// multiset is unchanged, so no cached state needs invalidating — a racing
// query answers identically from either side of the swap.
func (s *Session) CompactFact(opts colstore.CompactOptions) (*colstore.CompactResult, error) {
	end, err := s.beginWrite()
	if err != nil {
		return nil, err
	}
	defer end()
	res, err := colstore.Compact(s.eng.Snapshots(), s.cat.FactDir, opts)
	if err != nil {
		s.compactionFailures.Add(1)
		return nil, fmt.Errorf("serve: compact %s: %w", s.cat.FactName, err)
	}
	if len(res.Retired) > 0 {
		s.compactions.Add(1)
		s.compactedRows.Add(res.Rows)
		s.partsPublished.Add(int64(len(res.Published)))
		s.partsRetired.Add(int64(len(res.Retired)))
	}
	return res, nil
}

// RetainFact applies date-range retention to the fact table: partitions
// whose zone maps prove every value of col is below cutoff retire in one
// atomic swap; partitions straddling the cutoff stay (retention never
// drops a row it cannot prove expired). Dropping rows changes answers, so
// the swap gives the fact table a new content version. Returns the retired
// partitions.
func (s *Session) RetainFact(col string, cutoff int64) ([]string, error) {
	end, err := s.beginWrite()
	if err != nil {
		return nil, err
	}
	defer end()
	retired, err := colstore.ExpireBefore(s.eng.Snapshots(), s.cat.FactDir, col, cutoff)
	if err != nil {
		return nil, fmt.Errorf("serve: retention %s: %w", s.cat.FactName, err)
	}
	if len(retired) > 0 {
		s.partsRetired.Add(int64(len(retired)))
		s.retentions.Add(1)
	}
	return retired, nil
}

// StartCompactor runs CompactFact every interval until the returned stop
// function is called or the session closes. Pass errors surface on the
// "serve.ingest.compaction_failures" counter; one background compactor per
// session (a second call replaces the first).
func (s *Session) StartCompactor(interval time.Duration, opts colstore.CompactOptions) (stop func()) {
	quit := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(quit) }) }

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		stop()
		return stop
	}
	if prev := s.stopCompact; prev != nil {
		prev()
	}
	s.stopCompact = stop
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				// Close sets closed before signalling quit, so a tick racing
				// shutdown gets ErrClosed here rather than compacting into a
				// draining session.
				s.CompactFact(opts)
			}
		}
	}()
	return stop
}

// finishTrace emits the root query span, claims the trace's spans from the
// collector, and records the assembled profile in the flight recorder. A
// no-op for untraced queries. resultCache is what the result cache did for
// the query ("hit", "subsumed", "miss" or "off"; "" before a lookup): the
// root span's result_cache attribute, which EXPLAIN ANALYZE's header prints.
func (s *Session) finishTrace(sc obs.SpanContext, query string, start time.Time, qerr error, rep *core.Report, resultCache string) {
	if !sc.Valid() {
		return
	}
	if tr := s.mrEng.Tracer(); tr.Enabled() {
		status := "ok"
		if qerr != nil {
			status = "error"
		}
		var read core.Versions
		if rep != nil {
			read = rep.Read
		}
		root := obs.Span{Name: obs.PhaseQuery, Start: start, End: time.Now(),
			Attrs: obs.Attrs("query", query, "status", status, "read", read.String(), "plan", rep.PlanAttr(), "result_cache", resultCache)}
		sc.Fill(&root, "")
		tr.Emit(root)
	}
	if s.collector == nil {
		return
	}
	spans, dropped := s.collector.Take(sc.Trace)
	var counters map[string]int64
	if rep != nil && rep.Job != nil && rep.Job.Counters != nil {
		counters = rep.Job.Counters.Snapshot()
	}
	p, err := obs.BuildProfile(spans, obs.ProfileOptions{
		Trace:    sc.Trace,
		Counters: counters,
		Dropped:  dropped,
	})
	if err != nil {
		return
	}
	s.recorder.Record(p)
	if p.Orphans > 0 {
		s.Metrics().Counter("serve.profile.orphan_spans").Add(int64(p.Orphans))
	}
}

// observeQueueWait surfaces the admission wait as a span (parented under
// the query's root) and a histogram sample on the engine's tracer/registry.
func (s *Session) observeQueueWait(sc obs.SpanContext, query string, start time.Time) {
	end := time.Now()
	if tr := s.mrEng.Tracer(); tr.Enabled() {
		span := obs.Span{
			Name:  obs.PhaseAdmissionWait,
			Start: start,
			End:   end,
			Attrs: obs.Attrs("query", query),
		}
		sc.NewChild().Fill(&span, sc.Span)
		tr.Emit(span)
	}
	s.Metrics().Histogram("serve.admission_wait_ns").ObserveDuration(end.Sub(start))
}

// admissionCost estimates the per-node bytes admitting the query adds: the
// exact build size of each dimension table not already resident on every
// live node (cached tables are free — that is the point of the cache). The
// sizes come from the engine's one driver-side scan of the dimension
// version the query pinned (core.Engine.DimTableBytes), the scan its prune
// hints and blooms come from too.
func (s *Session) admissionCost(name string, dims []core.DimSpec) (int64, error) {
	nodeIDs := s.aliveIDs()
	var cost int64
	for i := range dims {
		d := &dims[i]
		dir, err := s.cat.DimDir(d.Table)
		if err != nil {
			return 0, err
		}
		est, err := s.eng.DimTableBytes(d)
		if err != nil {
			return 0, fmt.Errorf("serve: estimating %s tables: %w", name, err)
		}
		if !s.cache.ResidentEverywhere(core.TableKey(dir, d), nodeIDs) {
			cost += est
		}
	}
	return cost, nil
}

func (s *Session) aliveIDs() []string {
	nodes := s.mrEng.Cluster().Alive()
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	return ids
}

// Stats snapshots the serving counters.
func (s *Session) Stats() Stats {
	running, queued, admitted, rejected, peak := s.adm.snapshot()
	tables := s.cache.Stats()
	st := Stats{
		Hits:           tables.Hits,
		Misses:         tables.Misses,
		Builds:         tables.Builds,
		Evictions:      tables.Evictions,
		ResidentBytes:  tables.ResidentBytes,
		Admitted:       admitted,
		Rejected:       rejected,
		Running:        running,
		Queued:         queued,
		PeakConcurrent: peak,
	}
	if s.rcache != nil {
		st.ResultHits = s.rcache.hits.Load()
		st.ResultSubsumedHits = s.rcache.subsumedHits.Load()
		st.ResultMisses = s.rcache.misses.Load()
		st.ResultEvictions = s.rcache.evictions.Load()
		st.ResultInvalidations = s.rcache.invalidations.Load()
		st.ResultBytes = s.rcache.residentBytes()
	}
	st.RollIns = s.rollIns.Load()
	st.RollInRows = s.rollInRows.Load()
	st.RollInFailures = s.rollInFailures.Load()
	st.Compactions = s.compactions.Load()
	st.CompactedRows = s.compactedRows.Load()
	st.PartitionsPublished = s.partsPublished.Load()
	st.PartitionsRetired = s.partsRetired.Load()
	st.TableInvalidations = tables.Invalidations
	return st
}

// Close drains in-flight queries, evicts every cached table (returning its
// node memory reservation), drops every cached result, and fails all future
// Query calls with ErrClosed. Safe to call more than once.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stopCompact := s.stopCompact
	s.mu.Unlock()
	if stopCompact != nil {
		// Stop the background compactor before draining: its goroutine is
		// counted in wg, so waiting while it still ticks would deadlock.
		stopCompact()
	}
	s.wg.Wait()
	s.cache.Close()
	if s.rcache != nil {
		s.rcache.evictAll()
	}
	return nil
}
