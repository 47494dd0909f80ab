package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// shrink divides every dataset size, and the reference kernel's work; 1
	// except in the smoke tests.
	shrink int64
	// tamper, set only by tests, is called with the workload after the
	// window and before verification.
	tamper func(workload)
}

func (c runConfig) rows(n int64) int64 {
	if c.shrink > 1 {
		n /= c.shrink
	}
	return n
}

// A workload is one set of inputs and the loop that offers them.
type workload interface {
	// setup builds the cluster, loads the dataset made from the seed and
	// warms every cache a steady-state user would find warm. It is timed as
	// setup_s and runs setupReps times; close releases the previous build.
	setup(h *harness) error
	close()
	// slice runs one slice of measured work and records its samples.
	slice(h *harness, sl *slice) error
	// verify checks every answer the window produced, after the window.
	verify(h *harness) (checked, wrong int, err error)
	// ledger adds the workload's own per-layer numbers.
	ledger(h *harness, m metricSet) error
	environment() *env
}

// sample is one timed operation of the measured window.
type sample struct {
	kind   string // "query" or "rollin"
	flight int    // 1–4 for queries
	raw    time.Duration
	hit    bool // served from the result cache
	failed bool // error or refusal
	rows   int64
	// slo, when set, is the normalised latency beyond which the sample
	// counts as failed.
	slo time.Duration
	// roles says which end-to-end metrics a query sample feeds.
	roles uint8
}

const (
	// roleLatency: query_p50_ms and query_p90_ms.
	roleLatency uint8 = 1 << iota
	// roleFlight: its flight's flightN_p50_ms.
	roleFlight
)

// slice is a stretch of measured work bracketed by two reference-kernel
// samples; everything timed inside it is scaled by factor().
type slice struct {
	phase     string // "closed", "open" or "saturation"
	traced    bool   // the program's tracer was on
	span      int
	wall      time.Duration
	refBefore float64
	refAfter  float64
	samples   []sample
	backlog   int // open loop: arrivals still unanswered when the slice closed
	lagMs     []float64
	// throughput marks a slice whose completions per second feed
	// queries_per_s: every closed-loop slice.
	throughput bool
	// spare marks a slice run past the part of the window a workload
	// measures (ingest_live): recorded and checked, but it feeds no metric.
	spare bool
}

// failed reports whether a sample of this slice failed: an error, a
// refusal, or a normalised latency over its SLO.
func (s *slice) failed(sm sample) bool {
	return sm.failed || (sm.slo > 0 && time.Duration(float64(sm.raw)*s.factor()) > sm.slo)
}

// tally counts the slice's operations and how many of them failed. An
// arrival still unanswered when an open-loop slice closed is one operation
// more, and failed: the system did not keep up with the schedule.
func (s *slice) tally() (attempted, failed int) {
	for _, sm := range s.samples {
		if s.failed(sm) {
			failed++
		}
	}
	return len(s.samples) + s.backlog, failed + s.backlog
}

// factor converts a raw duration of this slice into a normalised one.
func (s *slice) factor() float64 { return normFactor(s.refBefore, s.refAfter) }

func normFactor(refBefore, refAfter float64) float64 {
	return math.Pow(refNominalMs/((refBefore+refAfter)/2), refElasticity)
}

// harness carries what every workload shares.
type harness struct {
	cfg    runConfig
	kernel *refKernel
	log    *spanLog

	mu      sync.Mutex
	slices  []*slice
	queryID int
	led     ledgerAcc
}

// sampleKernel times the reference kernel: the faster of two runs, which
// drops the occasional run that caught a vCPU asleep. It collects garbage
// first: a kernel sample taken while the collector is still
// marking the previous slice's heap (150 MB of simulated HDFS stay live)
// reads up to twice too slow, and would measure the program's allocation
// rate, not the host. The collection also gives every slice the same start:
// an empty young heap.
func (h *harness) sampleKernel() float64 {
	runtime.GC()
	return min(h.kernel.run(), h.kernel.run())
}

// ledgerAcc accumulates, over the traced run's window, what the layers
// report about themselves: job counters, task phase totals, the assembled
// profiles. It is filled only in a traced run.
type ledgerAcc struct {
	queries      int // queries that ran a job (cache hits excluded)
	counters     map[string]int64
	phases       map[string]time.Duration
	jobs         int
	hiveStages   int
	runSelf      time.Duration
	sortTime     time.Duration
	profiles     int
	profWall     time.Duration
	profPhases   time.Duration
	profPhase    map[string]time.Duration
	profSpans    int
	profMeasured time.Duration // the benchmark's own wall of the profiled queries
	memPeakMB    float64
}

func (h *harness) nextQueryID() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queryID++
	return h.queryID
}

// observeJobs folds the job results of one executed query into the ledger.
func (h *harness) observeJobs(jobs []*mr.JobResult, counters *mr.Counters) {
	if !h.cfg.trace {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a := &h.led
	if a.counters == nil {
		a.counters = make(map[string]int64)
		a.phases = make(map[string]time.Duration)
	}
	a.queries++
	for _, j := range jobs {
		if j == nil || j.JobID == "" {
			continue
		}
		a.jobs++
		for name, d := range j.PhaseTotals() {
			a.phases[name] += d
		}
	}
	if counters != nil {
		for name, v := range counters.Snapshot() {
			a.counters[name] += v
		}
	}
}

func (h *harness) observeCore(rep *core.Report, wall time.Duration) {
	if !h.cfg.trace || rep == nil || rep.Job == nil || rep.Job.JobID == "" {
		return
	}
	h.observeJobs([]*mr.JobResult{rep.Job}, rep.Job.Counters)
	h.mu.Lock()
	h.led.runSelf += wall - rep.Job.Duration
	h.led.sortTime += rep.SortTime
	h.mu.Unlock()
}

// sampleMemory polls the nodes' reserved memory every few milliseconds (a
// traced run only) until the returned stop function is called; the maximum
// becomes cluster.mem_peak_mb.
func (h *harness) sampleMemory(e *env) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				mem := e.memUsedMB()
				h.mu.Lock()
				if mem > h.led.memPeakMB {
					h.led.memPeakMB = mem
				}
				h.mu.Unlock()
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (h *harness) observeHive(rep *hive.Report) {
	if !h.cfg.trace || rep == nil {
		return
	}
	jobs := make([]*mr.JobResult, 0, len(rep.Stages))
	for _, st := range rep.Stages {
		jobs = append(jobs, st.Job)
	}
	h.observeJobs(jobs, rep.Counters)
	h.mu.Lock()
	h.led.hiveStages += len(rep.Stages)
	h.mu.Unlock()
}

// observeProfile folds one assembled query profile into the ledger;
// measured is the benchmark's own wall time of that query.
func (h *harness) observeProfile(p *obs.Profile, measured time.Duration) {
	if p == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a := &h.led
	if a.profPhase == nil {
		a.profPhase = make(map[string]time.Duration)
	}
	a.profiles++
	a.profWall += p.Wall
	a.profPhases += p.PhaseWallTotal()
	a.profSpans += p.Spans
	a.profMeasured += measured
	for _, st := range p.Phases {
		a.profPhase[st.Name] += st.Wall
	}
}

// tracedQuery runs fn as the root of a fresh trace on the program's tracer
// (when it is on) and folds the assembled profile into the ledger. It is
// how queries that bypass serve.Session get a profile; the root "query"
// span is emitted here, from the benchmark, the way serve.Session emits it.
func (h *harness) tracedQuery(e *env, name string, fn func(ctx context.Context) error) error {
	ctx := context.Background()
	if !e.mr.Tracer().Enabled() {
		return fn(ctx)
	}
	sc := obs.NewTrace()
	start := time.Now()
	err := fn(obs.ContextWith(ctx, sc))
	end := time.Now()
	root := obs.Span{Name: obs.PhaseQuery, Start: start, End: end, Attrs: obs.Attrs("query", name)}
	sc.Fill(&root, "")
	e.tracer.Emit(root)
	spans, dropped := e.traces.Take(sc.Trace)
	if p, perr := obs.BuildProfile(spans, obs.ProfileOptions{Trace: sc.Trace, Dropped: dropped}); perr == nil {
		h.observeProfile(p, end.Sub(start))
	}
	return err
}

// stored is one answer kept for verification after the window.
type stored struct {
	key string // query name, or the variant's fingerprint
	rs  *results.ResultSet
}

// closedLoop is the slice body of the single-client closed-loop workloads:
// one sweep over the query list.
func closedLoop(h *harness, sl *slice, names []string, run func(ctx context.Context, name string, parent, qid int) (*results.ResultSet, error), e *env, keep *[]stored) error {
	sl.phase = "closed"
	sl.throughput = true
	for _, name := range names {
		qid := h.nextQueryID()
		qs := h.log.begin("query", sl.span, qid)
		t0 := time.Now()
		var rs *results.ResultSet
		err := h.tracedQuery(e, name, func(ctx context.Context) error {
			var rerr error
			rs, rerr = run(ctx, name, qs, qid)
			return rerr
		})
		d := time.Since(t0)
		h.log.end(qs)
		sl.samples = append(sl.samples, sample{kind: "query", flight: flightOf(name), raw: d, failed: err != nil, roles: roleLatency | roleFlight})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*keep = append(*keep, stored{key: name, rs: rs})
	}
	return nil
}

func flightOf(name string) int {
	if len(name) >= 2 && name[0] == 'Q' && name[1] >= '1' && name[1] <= '4' {
		return int(name[1] - '0')
	}
	return 0
}

// sideWriter is the write probe of the workloads that have no writer of
// their own: a few fact batches rolled into a side table after each slice,
// so that rollin_rows_per_s and rollin_p50_ms exist (and are guarded) on
// every workload. ingest_live measures the same call under a concurrent
// reader instead.
type sideWriter struct {
	snaps *colstore.Snapshots
	gen   *ssb.Generator
	next  int64
}

const (
	sideDir        = "/bench/side.cif"
	batchRows      = 2048
	sideBatches    = 3 // per slice
	ingestPartRows = 1024
)

func newSideWriter(e *env) (*sideWriter, error) {
	none := func(func(records.Record) error) error { return nil }
	if _, err := colstore.WriteCIFTable(e.fs, sideDir, ssb.LineorderSchema, ingestPartRows, none); err != nil {
		return nil, err
	}
	return &sideWriter{snaps: colstore.NewSnapshots(e.fs), gen: e.gen}, nil
}

// rollIn writes sideBatches batches and returns their samples.
func (w *sideWriter) rollIn(h *harness, parent int) ([]sample, error) {
	var out []sample
	for b := 0; b < sideBatches; b++ {
		lo := w.next
		w.next += batchRows
		sp := h.log.begin("probe.colstore.rollin", parent, 0)
		t0 := time.Now()
		n, _, err := w.snaps.RollIn(sideDir, ingestPartRows, func(emit func(records.Record) error) error {
			for i := lo; i < lo+batchRows; i++ {
				if err := emit(w.gen.Lineorder(i % w.gen.LineorderRows())); err != nil {
					return err
				}
			}
			return nil
		})
		d := time.Since(t0)
		h.log.end(sp)
		if err != nil {
			return nil, fmt.Errorf("side roll-in: %w", err)
		}
		out = append(out, sample{kind: "rollin", raw: d, rows: n, failed: n != batchRows})
	}
	return out, nil
}

// hostInfo is what each output file records about the machine and the run.
type hostInfo struct {
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	LoadThreads int    `json:"load_threads"`
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkLoadThreads refuses a workload that would drive the system from more
// threads than the host has processors: the load generator would then
// compete with the system under test for the very thing being measured.
func checkLoadThreads(threads int) error {
	if n := runtime.NumCPU(); threads > n {
		return fmt.Errorf("workload needs %d load threads but the host has %d processors", threads, n)
	}
	return nil
}
