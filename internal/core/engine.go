package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"clydesdale/internal/cluster"

	"clydesdale/internal/colstore"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// ErrOOM marks a query that failed because dimension hash tables (or task
// state) exceeded the node memory budget; check with errors.Is. It aliases
// cluster.ErrOutOfMemory, so errors surfaced straight from the cluster
// match too.
var ErrOOM = cluster.ErrOutOfMemory

// Ablate is the set of techniques an engine runs without; the zero value is
// full Clydesdale. The first four are the ablations of §6.5 (Figure 9), the
// rest switch off the scan-side and compressed-execution paths one by one.
type Ablate uint

const (
	// NoColumnarStorage reads every CIF column instead of pruning the fact
	// scan to the query's columns.
	NoColumnarStorage Ablate = 1 << iota
	// NoBlockIteration boxes one record per fact row (Volcano-style)
	// instead of reading a block of rows at a time.
	NoBlockIteration
	// NoMultiThreading runs ordinary single-threaded map tasks that each
	// build private hash tables, instead of one multi-threaded map task per
	// node with shared tables (MTMapRunner + JVM reuse + capacity
	// scheduling + MultiCIF).
	NoMultiThreading
	// NoInMapperCombining emits one record per joined row and leaves all
	// map-side aggregation to the combiner, instead of accumulating the
	// algebraic sum in a per-thread hash table inside the map task and
	// emitting one record per group at reader close.
	NoInMapperCombining
	// NoScanPruning scans every partition: no zone-map pruning, no
	// driver-side FK-range hints.
	NoScanPruning
	// NoLateMaterialization decodes all projected columns eagerly instead
	// of predicate-first.
	NoLateMaterialization
	// NoCodeSpacePreds evaluates predicates over materialized values
	// instead of dictionary codes, turns delta range fusion off, and probes
	// the hash table instead of dictionary side tables.
	NoCodeSpacePreds
	// NoBloomPushdown drops rows that miss the probe at the probe instead
	// of in the scan.
	NoBloomPushdown
)

// Has reports whether any technique in f is switched off.
func (a Ablate) Has(f Ablate) bool { return a&f != 0 }

// Options configures the engine.
type Options struct {
	// Ablate switches techniques off; zero runs everything.
	Ablate Ablate
	// Tables, when non-nil, is the cache every job takes its dimension hash
	// tables from and leaves them in — how a serving layer shares tables
	// across queries. Its owner closes it. With none, each job has a cache
	// of its own for as long as it runs (§5.2).
	Tables *TableCache
	// Speculative enables MapReduce speculative execution for the query
	// jobs: once the pending queue drains, still-running map tasks get
	// backup attempts on other nodes, masking stragglers (slow disks, hot
	// nodes) at the cost of duplicate work.
	Speculative bool
}

// Engine executes physical plans (plan.Physical) on the MapReduce engine,
// one job per pass of the plan: a star is one job, a multi-pass plan carries
// rows from job to job and aggregates in the last. plan.Lower produces the
// plans; Run is the front door for a star Query.
type Engine struct {
	mr    *mr.Engine
	cat   *Catalog
	opts  Options
	snaps *colstore.Snapshots

	// images memoizes the column image of a dimension version the driver
	// read from the master (the filesystem's one image, not a copy); scans
	// what the table one build spec makes of it yields (dimScan), by
	// DimSpec.Fingerprint; built that table itself, which every node build
	// of the spec takes instead of building it again (tableFrom).
	images colstore.VersionMemo[[]byte]
	scans  colstore.VersionMemo[*dimScan]
	built  tableMemo
}

// New creates an engine over a MapReduce engine and a catalog.
func New(mrEngine *mr.Engine, cat *Catalog, opts Options) *Engine {
	return &Engine{mr: mrEngine, cat: cat, opts: opts, snaps: colstore.NewSnapshots(mrEngine.FS())}
}

// Snapshots returns the filesystem's table-version registry, which every
// engine over it shares. Every query pins its {table → version} vector there
// at plan time, and roll-in, compaction and retention publish and retire
// through it, so a query is atomic with respect to every writer.
func (e *Engine) Snapshots() *colstore.Snapshots { return e.snaps }

// Versions is a {table → version} vector: Tables in plan.Shape.Tables order
// (the fact table first, then the joined tables by name), At index-aligned.
type Versions struct {
	Tables []string
	At     []uint64
}

// Of returns the version of the named table, 0 when the vector lacks it.
func (v Versions) Of(table string) uint64 {
	for i, t := range v.Tables {
		if t == table {
			return v.At[i]
		}
	}
	return 0
}

// String renders the vector as "lineorder@7 customer@3".
func (v Versions) String() string {
	parts := make([]string, len(v.Tables))
	for i, t := range v.Tables {
		parts[i] = fmt.Sprintf("%s@%d", t, v.At[i])
	}
	return strings.Join(parts, " ")
}

// Pin is the one state of the catalog a query reads: the fact table's
// partition list and the version of every table the plan joins, taken
// under one hold of the registry mutex. Release it when the query ends.
type Pin struct {
	Read Versions
	snap *colstore.Snapshot
}

// Release unpins the fact partitions. Safe on nil and idempotent.
func (p *Pin) Release() {
	if p != nil {
		p.snap.Release()
	}
}

// DimSpecs are the build specs of a pipeline's join edges, in step order,
// each reading the version of its table the query pinned.
func (p *Pin) DimSpecs(steps []plan.Step) []DimSpec {
	dims := make([]DimSpec, len(steps))
	for i := range steps {
		dims[i] = DimSpecOf(&steps[i].JoinEdge)
		dims[i].Version = p.Read.Of(dims[i].Table)
	}
	return dims
}

// dirsOf resolves a shape's tables (plan.Shape.Tables: the fact table
// first) to their directories.
func (e *Engine) dirsOf(tables []string) ([]string, error) {
	dirs := make([]string, len(tables))
	dirs[0] = e.cat.FactDir
	for i, t := range tables[1:] {
		dir, err := e.cat.DimDir(t)
		if err != nil {
			return nil, err
		}
		dirs[1+i] = dir
	}
	return dirs, nil
}

// Pin pins the vector a query over a shape reads: the current state of
// every table in sh.Tables(), all taken at one instant.
func (e *Engine) Pin(sh *plan.Shape) (*Pin, error) {
	tables := sh.Tables()
	dirs, err := e.dirsOf(tables)
	if err != nil {
		return nil, err
	}
	snap, err := e.snaps.Acquire(dirs[0], dirs[1:]...)
	if err != nil {
		return nil, err
	}
	return &Pin{Read: Versions{tables, snap.Versions}, snap: snap}, nil
}

// CurrentVersions returns the vector Pin would pin for the listed tables
// (plan.Shape.Tables order) without pinning or listing anything.
func (e *Engine) CurrentVersions(tables []string) (Versions, error) {
	dirs, err := e.dirsOf(tables)
	if err != nil {
		return Versions{}, err
	}
	return Versions{tables, e.snaps.Versions(dirs[0], dirs[1:]...)}, nil
}

// Report describes one executed query.
type Report struct {
	Query    string
	Job      *mr.JobResult
	Total    time.Duration
	SortTime time.Duration
	// Read is the {table → version} vector the answer was computed from.
	Read Versions
	// Passes counts the jobs that ran, one per pass of the plan: 1 for a
	// star, one per depth level for a snowflake plan, one per step after the
	// one-step-per-pass fallback of a plan that ran out of node memory; 0
	// when no job ran. With more than one, Job is the last pass's job, its
	// counters those of every pass together.
	Passes int
}

// PlanAttr is the root query span's "plan" attribute, which EXPLAIN ANALYZE
// prints on its header: what ran, as "staged passes=2". Empty when no job
// ran (a nil report, a result-cache hit).
func (r *Report) PlanAttr() string {
	if r == nil || r.Passes == 0 {
		return ""
	}
	return fmt.Sprintf("%s passes=%d", plan.KindOf(r.Passes), r.Passes)
}

// Run executes a star query: LogicalOf lifts it into the plan IR, plan.Lower
// compiles that, RunPlan executes it (the single-pass star join, with the
// one-step-per-pass fallback on memory exhaustion). ctx cancels the query;
// the error then matches the context cause and mr.ErrCanceled.
func (e *Engine) Run(ctx context.Context, q *Query) (*results.ResultSet, *Report, error) {
	l, err := LogicalOf(q, e.cat)
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Lower(l)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPlan(ctx, p)
}

// traceRoot makes the query the root of its own trace when tracing is on
// and no caller owns one (serve.Session puts a SpanContext in ctx; a
// standalone CLI or test does not). The returned context carries the root
// span context for the jobs below; the returned finish emits the root
// "query" span — call it exactly once, after the query ends, with the
// query's report (nil when it failed).
func (e *Engine) traceRoot(ctx context.Context, name string, read Versions) (context.Context, func(*Report, error)) {
	tr := e.mr.Tracer()
	if _, ok := obs.FromContext(ctx); ok || !tr.Enabled() {
		return ctx, func(*Report, error) {}
	}
	sc := obs.NewTrace()
	start := time.Now()
	return obs.ContextWith(ctx, sc), func(rep *Report, err error) {
		status := "ok"
		if err != nil {
			status = "error"
		}
		s := obs.Span{Name: obs.PhaseQuery, Start: start, End: time.Now(),
			Attrs: obs.Attrs("query", name, "status", status, "read", read.String(), "plan", rep.PlanAttr())}
		sc.Fill(&s, "")
		tr.Emit(s)
	}
}

// phaseSpan opens a driver-side phase span under the query's trace root and
// returns its closer; a no-op when tracing is off or ctx carries no trace.
func (e *Engine) phaseSpan(ctx context.Context, name string) func() {
	tr := e.mr.Tracer()
	sc, ok := obs.FromContext(ctx)
	if !ok || !tr.Enabled() {
		return func() {}
	}
	start := time.Now()
	return func() {
		s := obs.Span{Name: name, Start: start, End: time.Now()}
		sc.NewChild().Fill(&s, sc.Span)
		tr.Emit(s)
	}
}

// ensureCached makes the node-local copy of every listed dimension (dirs
// index-aligned with dims), at the version its spec names, present on every
// live node (normally a no-op after cluster setup), under a dim-cache phase
// span.
func (e *Engine) ensureCached(ctx context.Context, dims []DimSpec, dirs []string) error {
	defer e.phaseSpan(ctx, obs.PhaseDimCache)()
	for i := range dims {
		if _, err := ensureDimCached(e.mr.FS(), dirs[i], dims[i].Version); err != nil {
			return err
		}
	}
	return nil
}

// factScan is the fact-table input of a plan's first pass: the shape's fact
// read set (every column under NoColumnarStorage), the fact predicate, and
// the scan pushdowns derived from the depth-1 dimensions head — FK-range
// prune hints, semi-join blooms, FKs decoded eagerly. It scans the partition
// list the query pinned: a roll-in, compaction or retention landing while
// the query runs changes what ListPartitions would return, not what the
// query scans.
func (e *Engine) factScan(sh *plan.Shape, head []DimSpec, pin *Pin) *colstore.CIFInput {
	ab := e.opts.Ablate
	input := &colstore.CIFInput{
		Dir: e.cat.FactDir, Schema: e.cat.FactSchema,
		Pred: sh.FactPred, EagerColumns: factFKs(head),
		DisablePruning: ab.Has(NoScanPruning), DisableLateMat: ab.Has(NoLateMaterialization),
		DisableCodeSpacePreds: ab.Has(NoCodeSpacePreds),
		Snapshot:              pin.snap.Parts,
	}
	if !ab.Has(NoColumnarStorage) {
		input.Columns = sh.FactColumns()
	}
	if prune, bloom := !ab.Has(NoScanPruning), !ab.Has(NoBloomPushdown); prune || bloom {
		hints, filters := e.pushdowns(head)
		if prune {
			input.PrunePreds = hints
		}
		if bloom {
			input.KeyFilters = filters
		}
	}
	return input
}

// mapJoinConf configures a pass, a job whose map side runs the star-join
// runner. With multi-threading on: one map task per node (capacity
// scheduling via a whole-node memory request), JVM reuse so consecutive
// tasks share the node's hash tables, and a probe thread per map slot, for
// which CIFInput packs multi-splits (MultiCIF) so each thread gets its own
// readers.
func (e *Engine) mapJoinConf() mr.Conf {
	if e.opts.Ablate.Has(NoMultiThreading) {
		return mr.Conf{}
	}
	cfg := e.mr.Cluster().Config()
	return mr.Conf{TaskMemory: cfg.MemoryPerNode, JVMReuse: true, MapThreads: cfg.MapSlots}
}

// sumJob fills in the grouped-SUM reduce side of a plan's last pass:
// SumReducer as combiner and reducer over (group key, partial sum), one
// reducer per worker node (the paper's one reduce slot per node), a single
// one for a grand aggregate.
func (e *Engine) sumJob(job *mr.Job, sh *plan.Shape) {
	job.Conf.Speculative = e.opts.Speculative
	job.NewReducer = func() mr.Reducer { return SumReducer{} }
	job.NewCombiner = func() mr.Reducer { return SumReducer{} }
	job.NumReduceTasks = len(e.mr.Cluster().Nodes())
	if len(sh.GroupBy) == 0 {
		job.NumReduceTasks = 1
	}
	job.KeySchema = sh.GroupSchema()
	job.ValueSchema = AggValueSchema
}

// Orders is the shape's effective result ordering in the result package's
// vocabulary.
func Orders(sh *plan.Shape) []results.Order {
	keys := sh.Orders()
	orders := make([]results.Order, len(keys))
	for i, k := range keys {
		orders[i] = results.Order(k)
	}
	return orders
}

// finish is the driver-side epilogue: collect the grouped sums the last
// pass reduced into out, run the final sort (Figure 4 line 33), and complete
// the report.
func finish(sh *plan.Shape, out *mr.MemoryOutput, rep *Report, start time.Time) (*results.ResultSet, *Report, error) {
	rs := CollectRows(sh.ResultSchema(), len(sh.GroupBy) > 0, out)
	sortStart := time.Now()
	if orders := Orders(sh); len(orders) > 0 {
		if err := rs.Sort(orders); err != nil {
			return nil, nil, err
		}
	}
	rep.Query = sh.Name
	rep.SortTime = time.Since(sortStart)
	rep.Total = time.Since(start)
	return rs, rep, nil
}

// CollectRows turns grouped-SUM reduce output into a result set; the Hive
// baseline collects its group-by job's output with it too.
func CollectRows(schema *records.Schema, grouped bool, out *mr.MemoryOutput) *results.ResultSet {
	rs := &results.ResultSet{Schema: schema}
	pairs := out.Pairs()
	if len(pairs) == 0 && !grouped {
		// Grand aggregate over an empty selection: one zero row.
		rs.Rows = append(rs.Rows, records.Make(schema, records.Float(0)))
		return rs
	}
	for _, kv := range pairs {
		vals := make([]records.Value, 0, schema.Len())
		vals = append(vals, kv.Key.Values()...)
		vals = append(vals, records.Float(kv.Value.At(0).Float64()))
		rs.Rows = append(rs.Rows, records.Make(schema, vals...))
	}
	return rs
}
