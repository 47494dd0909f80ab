package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// ServeBenchConfig shapes the open-loop serving benchmark: a mixed-tenant
// workload of interactive dashboards (flight-1, one dimension) and
// reporting refreshes (flight-4, all four dimensions) fired at the session
// on a Poisson arrival process that does not wait for completions.
type ServeBenchConfig struct {
	FactRows int64   `json:"fact_rows"`
	DimScale float64 `json:"dim_scale"`
	Workers  int     `json:"workers"`
	// Seed fixes the arrival schedule (offsets, tenants, query mix), so
	// every policy pass replays the identical workload.
	Seed uint64 `json:"seed"`
	// Duration is the open-loop arrival window; the run then drains.
	Duration time.Duration `json:"duration_ns"`
	// Rate is the mean arrival rate (events per second). A reporting event
	// submits ReportingBurst queries at once (a dashboard refresh), so the
	// query rate is higher than the event rate.
	Rate float64 `json:"rate_per_sec"`
	// Tenants is the interactive tenant population; each arrival draws one.
	Tenants int `json:"tenants"`
	// ReportingTenants is the (small) pool of heavy reporting tenants.
	ReportingTenants int `json:"reporting_tenants"`
	// ReportingShare is the probability an arrival is a reporting burst.
	ReportingShare float64 `json:"reporting_share"`
	// ReportingBurst is how many flight-4 queries one reporting event
	// submits back-to-back.
	ReportingBurst int `json:"reporting_burst"`
	// MaxConcurrent and QueueDepth configure the session under test.
	MaxConcurrent int `json:"max_concurrent"`
	QueueDepth    int `json:"queue_depth"`
	// InteractiveSLO / ReportingSLO are the per-class latency targets the
	// attainment figures are computed against.
	InteractiveSLO time.Duration `json:"interactive_slo_ns"`
	ReportingSLO   time.Duration `json:"reporting_slo_ns"`
}

func (c ServeBenchConfig) withDefaults() ServeBenchConfig {
	if c.FactRows <= 0 {
		// Large enough that a flight-4 reporting query runs tens of ms while
		// zone-map pruning keeps flight-1 dashboards at a few ms — the
		// spread that makes head-of-line blocking measurable above run noise.
		c.FactRows = 500_000
	}
	if c.DimScale <= 0 {
		c.DimScale = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration <= 0 {
		c.Duration = 12 * time.Second
	}
	if c.Rate <= 0 {
		c.Rate = 10
	}
	if c.Tenants <= 0 {
		c.Tenants = 2000
	}
	if c.ReportingTenants <= 0 {
		c.ReportingTenants = 4
	}
	if c.ReportingShare <= 0 {
		c.ReportingShare = 0.10
	}
	if c.ReportingBurst <= 0 {
		c.ReportingBurst = 8
	}
	if c.MaxConcurrent <= 0 {
		// One executing query maximizes head-of-line blocking — the regime
		// the admission policies differ in — while keeping the offered load
		// under saturation.
		c.MaxConcurrent = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.InteractiveSLO <= 0 {
		c.InteractiveSLO = 250 * time.Millisecond
	}
	if c.ReportingSLO <= 0 {
		c.ReportingSLO = 2 * time.Second
	}
	return c
}

// ServeClassStats is one query class's outcome under one admission policy.
// Quantiles are read from the session's serve.slo.<class> histograms (the
// same numbers a /slo scrape reports); attainment and shed rate come from
// the harness's own per-query bookkeeping.
type ServeClassStats struct {
	Class         string  `json:"class"`
	Offered       int64   `json:"offered"`
	Completed     int64   `json:"completed"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	MaxNs         int64   `json:"max_ns"`
	ThroughputQPS float64 `json:"throughput_qps"`
	SLOTargetNs   int64   `json:"slo_target_ns"`
	SLOAttainment float64 `json:"slo_attainment"`
	ShedRate      float64 `json:"shed_rate"`
}

// ServePassStats is one full replay of the workload under one policy.
type ServePassStats struct {
	// Policy is "fifo" (tenant identity stripped: the single default-tenant
	// queue is exactly the old global FIFO), "fairshare" (per-tenant DRR),
	// or "fairshare+cache" (DRR plus the fingerprint result cache).
	Policy         string            `json:"policy"`
	Classes        []ServeClassStats `json:"classes"`
	AdmitWaitP50Ns int64             `json:"admit_wait_p50_ns"`
	AdmitWaitP99Ns int64             `json:"admit_wait_p99_ns"`
	AdmitWaitMaxNs int64             `json:"admit_wait_max_ns"`
	WallNs         int64             `json:"wall_ns"`
	TotalQPS       float64           `json:"total_qps"`
	MRJobs         int64             `json:"mr_jobs"`
	ResultHits     int64             `json:"result_cache_hits"`
	ResultSubsumed int64             `json:"result_cache_subsumption_hits"`
}

// ResultCachePhase is the dedicated cold/warm result-cache measurement: the
// warm pass must serve every repeat (and one strictly-narrower subsumption
// probe) without submitting a single MapReduce job.
type ResultCachePhase struct {
	ColdNs          int64 `json:"cold_ns"`
	WarmNs          int64 `json:"warm_ns"`
	ColdJobs        int64 `json:"cold_jobs"`
	WarmJobs        int64 `json:"warm_jobs"`
	WarmHits        int64 `json:"warm_hits"`
	SubsumptionHits int64 `json:"subsumption_hits"`
	// Equivalent reports that every cache-served result (warm repeats and
	// the subsumption probe) matched the in-memory reference executor.
	Equivalent bool `json:"equivalent"`
}

// ServeBenchResult is the payload of BENCH_serve.json.
type ServeBenchResult struct {
	Config ServeBenchConfig `json:"config"`
	Passes []ServePassStats `json:"passes"`
	Cache  ResultCachePhase `json:"result_cache"`
}

// WriteJSON writes the result as indented JSON.
func (r *ServeBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

const (
	classInteractive = "interactive"
	classReporting   = "reporting"
)

// sloClassOf maps the harness's workload classes onto the serve layer's SLO
// classes (flight-1 / flight-4 histograms).
func sloClassOf(class string) string {
	if class == classInteractive {
		return serve.QueryClass("Q1.1")
	}
	return serve.QueryClass("Q4.1")
}

// arrival is one scheduled query submission.
type arrival struct {
	at     time.Duration
	tenant string
	class  string
	q      *core.Query
}

// buildSchedule precomputes the Poisson arrival schedule from the seed. The
// same seed always yields the same schedule, so every policy pass replays
// an identical workload and the deltas between passes are the policy.
func buildSchedule(cfg ServeBenchConfig) []arrival {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	interactive := flightQueries("Q1.1", "Q1.2", "Q1.3")
	reporting := flightQueries("Q4.1", "Q4.2", "Q4.3")
	var (
		sched  []arrival
		t      time.Duration
		iNext  int
		rNext  int
		rrRep  int
		mean   = float64(time.Second) / cfg.Rate
		window = cfg.Duration
	)
	for {
		t += time.Duration(rng.ExpFloat64() * mean)
		if t >= window {
			return sched
		}
		if rng.Float64() < cfg.ReportingShare {
			tenant := fmt.Sprintf("report-%d", rrRep%cfg.ReportingTenants)
			rrRep++
			for b := 0; b < cfg.ReportingBurst; b++ {
				sched = append(sched, arrival{at: t, tenant: tenant,
					class: classReporting, q: reporting[rNext%len(reporting)]})
				rNext++
			}
		} else {
			tenant := fmt.Sprintf("tenant-%d", rng.Intn(cfg.Tenants))
			sched = append(sched, arrival{at: t, tenant: tenant,
				class: classInteractive, q: interactive[iNext%len(interactive)]})
			iNext++
		}
	}
}

func flightQueries(names ...string) []*core.Query {
	out := make([]*core.Query, len(names))
	for i, n := range names {
		q, err := ssb.QueryByName(n)
		if err != nil {
			panic(err) // query tables are static; a miss is a programming error
		}
		out[i] = q
	}
	return out
}

// serveBenchEnv is the shared substrate: the load passes reuse one cluster
// and dataset, each with a fresh engine registry and session so per-pass
// metrics never mix.
type serveBenchEnv struct {
	cfg ServeBenchConfig
	c   *cluster.Cluster
	fs  *hdfs.FileSystem
	gen *ssb.Generator
	lay *ssb.Layout
}

func newServeBenchEnv(cfg ServeBenchConfig) (*serveBenchEnv, error) {
	gen := ssb.NewBenchGenerator(cfg.DimScale, cfg.FactRows, cfg.Seed)
	c := cluster.New(cluster.Testing(cfg.Workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 256 << 10, Seed: int64(cfg.Seed)})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 4096})
	if err != nil {
		return nil, err
	}
	if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
		return nil, err
	}
	return &serveBenchEnv{cfg: cfg, c: c, fs: fs, gen: gen, lay: lay}, nil
}

// newSession builds a fresh engine + session for one pass. The returned
// registry holds only this pass's metrics.
func (e *serveBenchEnv) newSession(cacheOn bool) (*serve.Session, *mr.Engine) {
	reg := obs.NewRegistry()
	mrEng := mr.NewEngine(e.c, e.fs, mr.Options{Metrics: reg})
	rcb := int64(-1)
	if cacheOn {
		rcb = 0 // default budget
	}
	s := serve.New(mrEng, e.lay.Catalog(), serve.Options{
		MaxConcurrent:     e.cfg.MaxConcurrent,
		QueueDepth:        e.cfg.QueueDepth,
		ResultCacheBudget: rcb,
		ProfileDepth:      -1, // thousands of queries; no per-query tracing
	})
	return s, mrEng
}

// runPass replays the schedule against one session under one policy.
func (e *serveBenchEnv) runPass(policy string, sched []arrival, withTenants, cacheOn bool) (*ServePassStats, error) {
	s, mrEng := e.newSession(cacheOn)
	defer s.Close()

	// Warm the dimension-table cache and cost estimates outside the
	// measured window (every pass pays the same warmup), then give the
	// engine a clean registry so the SLO histograms and the job counter
	// hold only the measured window.
	for _, q := range append(flightQueries("Q1.1", "Q1.2", "Q1.3"), flightQueries("Q4.1", "Q4.2", "Q4.3")...) {
		if _, _, err := s.Query(context.Background(), q); err != nil {
			return nil, fmt.Errorf("bench: %s warmup %s: %w", policy, q.Name, err)
		}
	}
	if cacheOn {
		// The cache passes measure fair-share + caching on repeats within
		// the window, not leftovers of the warmup: a new fact version leaves
		// the warmup's results behind and its hash tables warm.
		if err := s.InvalidateTable(ssb.TableLineorder); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	mrEng.SetMetrics(reg)

	type classAgg struct {
		offered, completed, shed, errs int64
		attained                       int64
	}
	var (
		mu      sync.Mutex
		agg     = map[string]*classAgg{classInteractive: {}, classReporting: {}}
		sampled = map[string]*results.ResultSet{}
		firstEr error
	)
	target := map[string]time.Duration{
		classInteractive: e.cfg.InteractiveSLO,
		classReporting:   e.cfg.ReportingSLO,
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		a := &sched[i]
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(a *arrival) {
			defer wg.Done()
			ctx := context.Background()
			if withTenants {
				ctx = serve.WithTenant(ctx, a.tenant)
			}
			t0 := time.Now()
			rs, _, err := s.Query(ctx, a.q)
			took := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			ca := agg[a.class]
			ca.offered++
			switch {
			case err == nil:
				ca.completed++
				if took <= target[a.class] {
					ca.attained++
				}
				if sampled[a.q.Name] == nil {
					sampled[a.q.Name] = rs
				}
			case errors.Is(err, serve.ErrQueueFull):
				ca.shed++
			default:
				ca.errs++
				if firstEr == nil {
					firstEr = fmt.Errorf("bench: %s pass %s: %w", policy, a.q.Name, err)
				}
			}
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstEr != nil {
		return nil, firstEr
	}

	// Every served result — whichever path served it — must equal the
	// reference executor.
	for name, rs := range sampled {
		q, err := ssb.QueryByName(name)
		if err != nil {
			return nil, err
		}
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			return nil, err
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			return nil, fmt.Errorf("bench: %s pass %s diverged from refexec: %s", policy, name, why)
		}
	}

	snap := reg.Snapshot()
	out := &ServePassStats{Policy: policy, WallNs: wall.Nanoseconds()}
	var total int64
	for _, class := range []string{classInteractive, classReporting} {
		ca := agg[class]
		h := snap.Histograms["serve.slo."+sloClassOf(class)+".latency_ns"]
		cs := ServeClassStats{
			Class:       class,
			Offered:     ca.offered,
			Completed:   ca.completed,
			Shed:        ca.shed,
			Errors:      ca.errs,
			P50Ns:       int64(h.P50),
			P99Ns:       int64(h.P99),
			MaxNs:       int64(h.Max),
			SLOTargetNs: target[class].Nanoseconds(),
		}
		if wall > 0 {
			cs.ThroughputQPS = float64(ca.completed) / wall.Seconds()
		}
		if ca.completed > 0 {
			cs.SLOAttainment = float64(ca.attained) / float64(ca.completed)
		}
		if ca.offered > 0 {
			cs.ShedRate = float64(ca.shed) / float64(ca.offered)
		}
		out.Classes = append(out.Classes, cs)
		total += ca.completed
	}
	if wall > 0 {
		out.TotalQPS = float64(total) / wall.Seconds()
	}
	wait := snap.Histograms["serve.admission_wait_ns"]
	out.AdmitWaitP50Ns = int64(wait.P50)
	out.AdmitWaitP99Ns = int64(wait.P99)
	out.AdmitWaitMaxNs = int64(wait.Max)
	out.MRJobs = snap.Counters["mr.jobs_submitted"]
	st := s.Stats()
	out.ResultHits = st.ResultHits
	out.ResultSubsumed = st.ResultSubsumedHits
	return out, nil
}

// narrowQ41 derives a strictly-narrower Q4.1: the extra d_year conjunct
// reads only a group-by column, so a cached broad Q4.1 answers it by
// post-filtering group rows (the subsumption rule).
func narrowQ41() (*core.Query, error) {
	broad, err := ssb.QueryByName("Q4.1")
	if err != nil {
		return nil, err
	}
	q := *broad
	q.Name = "Q4.1" // same SLO class; the plan fingerprint tells them apart
	q.Dims = append([]core.DimSpec(nil), broad.Dims...)
	d := &q.Dims[0] // the date dimension (no predicate in broad Q4.1)
	if d.Pred != nil {
		return nil, fmt.Errorf("bench: Q4.1 date dim grew a predicate; narrowQ41 needs updating")
	}
	d.Pred = expr.In(expr.Col("d_year"), records.Int(1997), records.Int(1998))
	return &q, nil
}

// runCachePhase measures the result cache directly: a cold pass over the
// distinct query set, then a warm pass over the same set plus the
// subsumption probe, counter-verifying that the warm pass submits zero
// MapReduce jobs.
func (e *serveBenchEnv) runCachePhase() (ResultCachePhase, error) {
	var ph ResultCachePhase
	s, mrEng := e.newSession(true)
	defer s.Close()
	reg := mrEng.Metrics()
	jobs := func() int64 { return reg.Counter("mr.jobs_submitted").Value() }

	queries := flightQueries("Q1.1", "Q1.2", "Q1.3", "Q4.1", "Q4.2", "Q4.3")
	check := func(q *core.Query, rs *results.ResultSet) error {
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			return err
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			return fmt.Errorf("bench: cache phase %s diverged from refexec: %s", q.Name, why)
		}
		return nil
	}

	// The equivalence oracle (a full driver-side scan) runs outside the
	// timed windows so Cold/WarmNs measure serving, not verification.
	type served struct {
		q  *core.Query
		rs *results.ResultSet
	}
	var toCheck []served

	j0 := jobs()
	t0 := time.Now()
	for _, q := range queries {
		rs, _, err := s.Query(context.Background(), q)
		if err != nil {
			return ph, fmt.Errorf("bench: cold cache pass %s: %w", q.Name, err)
		}
		toCheck = append(toCheck, served{q, rs})
	}
	ph.ColdNs = time.Since(t0).Nanoseconds()
	ph.ColdJobs = jobs() - j0

	narrow, err := narrowQ41()
	if err != nil {
		return ph, err
	}
	st0 := s.Stats()
	j1 := jobs()
	t1 := time.Now()
	for _, q := range append(queries, narrow) {
		rs, _, err := s.Query(context.Background(), q)
		if err != nil {
			return ph, fmt.Errorf("bench: warm cache pass %s: %w", q.Name, err)
		}
		toCheck = append(toCheck, served{q, rs})
	}
	ph.WarmNs = time.Since(t1).Nanoseconds()
	ph.WarmJobs = jobs() - j1

	for _, sv := range toCheck {
		if err := check(sv.q, sv.rs); err != nil {
			return ph, err
		}
	}
	st := s.Stats()
	ph.WarmHits = st.ResultHits - st0.ResultHits
	ph.SubsumptionHits = st.ResultSubsumedHits - st0.ResultSubsumedHits
	ph.Equivalent = true
	return ph, nil
}

// RunServeBench replays one seed-deterministic mixed-tenant workload three
// times — FIFO admission (tenant identity stripped), weighted fair-share,
// and fair-share with the result cache — then measures the result cache's
// cold/warm behavior directly. The FIFO-vs-fairshare passes run with the
// result cache off so repeated dashboards genuinely queue; the deltas
// between passes are pure admission policy, because the arrival schedule,
// dataset and cluster are identical.
func RunServeBench(cfg ServeBenchConfig, w io.Writer) (*ServeBenchResult, error) {
	cfg = cfg.withDefaults()
	env, err := newServeBenchEnv(cfg)
	if err != nil {
		return nil, err
	}
	sched := buildSchedule(cfg)
	if len(sched) == 0 {
		return nil, fmt.Errorf("bench: empty arrival schedule (duration %v at %.1f/s)", cfg.Duration, cfg.Rate)
	}
	if w != nil {
		nInt, nRep := 0, 0
		for _, a := range sched {
			if a.class == classInteractive {
				nInt++
			} else {
				nRep++
			}
		}
		fmt.Fprintf(w, "serve bench: %d arrivals over %v (%d interactive, %d reporting), %d workers, maxconc %d\n",
			len(sched), cfg.Duration, nInt, nRep, cfg.Workers, cfg.MaxConcurrent)
	}

	out := &ServeBenchResult{Config: cfg}
	passes := []struct {
		policy      string
		withTenants bool
		cacheOn     bool
	}{
		{"fifo", false, false},
		{"fairshare", true, false},
		{"fairshare+cache", true, true},
	}
	for _, p := range passes {
		st, err := env.runPass(p.policy, sched, p.withTenants, p.cacheOn)
		if err != nil {
			return nil, err
		}
		out.Passes = append(out.Passes, *st)
		if w != nil {
			for _, cs := range st.Classes {
				fmt.Fprintf(w, "%-16s %-12s offered=%-5d done=%-5d shed=%-4d p50=%-10v p99=%-10v slo=%5.1f%% qps=%.1f\n",
					st.Policy, cs.Class, cs.Offered, cs.Completed, cs.Shed,
					time.Duration(cs.P50Ns).Round(time.Millisecond),
					time.Duration(cs.P99Ns).Round(time.Millisecond),
					100*cs.SLOAttainment, cs.ThroughputQPS)
			}
			fmt.Fprintf(w, "%-16s admit_wait p50=%v p99=%v max=%v; mr_jobs=%d result_hits=%d subsumed=%d\n",
				st.Policy,
				time.Duration(st.AdmitWaitP50Ns).Round(time.Millisecond),
				time.Duration(st.AdmitWaitP99Ns).Round(time.Millisecond),
				time.Duration(st.AdmitWaitMaxNs).Round(time.Millisecond),
				st.MRJobs, st.ResultHits, st.ResultSubsumed)
		}
	}

	ph, err := env.runCachePhase()
	if err != nil {
		return nil, err
	}
	out.Cache = ph
	if w != nil {
		speedup := math.Inf(1)
		if ph.WarmNs > 0 {
			speedup = float64(ph.ColdNs) / float64(ph.WarmNs)
		}
		fmt.Fprintf(w, "result cache: cold %v (%d jobs) -> warm %v (%d jobs, %d hits, %d subsumption) %.0fx\n",
			time.Duration(ph.ColdNs).Round(time.Millisecond), ph.ColdJobs,
			time.Duration(ph.WarmNs).Round(time.Millisecond), ph.WarmJobs,
			ph.WarmHits, ph.SubsumptionHits, speedup)
	}
	return out, nil
}
