package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// lowerAsRun lowers q the way Run does.
func lowerAsRun(eng *core.Engine, q *core.Query) (*plan.Physical, error) {
	l, err := core.LogicalOf(q, eng.Catalog())
	if err != nil {
		return nil, err
	}
	return plan.Lower(l)
}

// runStaged forces the §5.1 plan: it lowers q as Run would and executes the
// plan's one-step-per-pass form.
func runStaged(eng *core.Engine, q *core.Query) (*results.ResultSet, *core.Report, error) {
	p, err := lowerAsRun(eng, q)
	if err != nil {
		return nil, nil, err
	}
	return eng.RunPlan(context.Background(), p.OneStepPerPass())
}

// TestStagedMatchesReference runs every SSB query through the §5.1 staged
// plan and checks the answers against the reference executor — under full
// Clydesdale and under each of the paper's ablations: the carried-row sink
// runs over block and row readers, on one thread or many, and the last
// pass's sum sink, combining in the mapper or not, over carried rows. A
// one-join query's one-step-per-pass form is the plan itself, one job.
func TestStagedMatchesReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	for name, ab := range map[string]core.Ablate{
		"none":                   0,
		"no-columnar":            core.NoColumnarStorage,
		"no-block-iteration":     core.NoBlockIteration,
		"no-multithread":         core.NoMultiThreading,
		"no-in-mapper-combining": core.NoInMapperCombining,
	} {
		eng := e.engine(core.Options{Ablate: ab})
		for _, q := range ssb.Queries() {
			rs, rep, err := runStaged(eng, q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q.Name, err)
			}
			want, err := refexec.Run(e.gen, q)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
				t.Errorf("%s %s staged: %s", name, q.Name, why)
			}
			if rep.Passes != len(q.Dims) {
				t.Errorf("%s %s: report says passes=%d for %d joins", name, q.Name, rep.Passes, len(q.Dims))
			}
			if rep.Job.Counters.Get(core.CtrHashTablesBuilt) == 0 {
				t.Errorf("%s %s: no hash builds recorded", name, q.Name)
			}
		}
	}
}

// TestStagedSurvivesTightMemory is the point of §5.1: a node budget that
// holds one dimension table but not all of them together fails the
// single-job plan and succeeds staged.
func TestStagedSurvivesTightMemory(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, err := ssb.QueryByName("Q4.1") // four dimensions
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
	if sum <= max {
		t.Fatal("need multiple non-trivial dims for this test")
	}
	// Budget: the largest single table fits, the sum does not.
	budget := max + (sum-max)/4
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: budget})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 13})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{})

	// Staged plan completes with correct answers.
	rs, _, err := runStaged(eng, q)
	if err != nil {
		t.Fatalf("staged: %v", err)
	}
	want, _ := refexec.Run(gen, q)
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("staged under pressure: %s", why)
	}

	// The single-job plan as lowered, with no fallback, must OOM, and the
	// error names every table of the pass that failed, not just the first.
	star, err := lowerAsRun(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := eng.Pin(star.Shape)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = core.RunAsLowered(eng, context.Background(), star, pin)
	pin.Release()
	if !errors.Is(err, core.ErrOOM) {
		t.Fatalf("single job under pressure: %v, want ErrOOM", err)
	}
	for _, d := range q.Dims {
		if !strings.Contains(err.Error(), d.Table) {
			t.Errorf("the failed pass joins %s, its error does not say so: %v", d.Table, err)
		}
	}

	// Run hits the same OOM — the fallback runs on no other error — and
	// picks the staged path automatically.
	rs2, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if rep.Passes < 2 {
		t.Error("Run should have hit the single-job OOM and fallen back to the staged plan")
	}
	if ok, why := results.Equivalent(rs2, want, 1e-9); !ok {
		t.Errorf("auto: %s", why)
	}
	// Memory fully released.
	for _, n := range c.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
	// Intermediates cleaned up.
	if files := fs.List("/tmp/clydesdale/"); len(files) != 0 {
		t.Errorf("leftover staged intermediates: %v", files)
	}
}

// TestZeroJoinStatementIsOnePass runs a statement with no joins, SELECT
// SUM(lo_revenue) FROM lineorder WHERE lo_discount < 3: a plan of zero steps
// is still one pass, the fact scan aggregated by one job that builds nothing
// and leaves nothing behind, as lowered and one step per pass alike.
func TestZeroJoinStatementIsOnePass(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	l := zeroJoinStatement(eng.Catalog())
	want, err := refexec.RunLogical(l, e.gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*plan.Physical{p, p.OneStepPerPass()} {
		rs, rep, err := eng.RunPlan(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("zero joins: %s\ngot:\n%swant:\n%s", why, rs, want)
		}
		c := rep.Job.Counters
		if rep.Passes != 1 || c.Get(mr.CtrMapTasks) == 0 || c.Get(mr.CtrReduceTasks) != 1 || c.Get(core.CtrHashTablesBuilt) != 0 {
			t.Errorf("zero joins ran %d passes with %d map tasks, %d reduce tasks and %d hash builds; want one aggregating job that builds nothing",
				rep.Passes, c.Get(mr.CtrMapTasks), c.Get(mr.CtrReduceTasks), c.Get(core.CtrHashTablesBuilt))
		}
	}
	if files := e.fs.List("/tmp/clydesdale/"); len(files) != 0 {
		t.Errorf("a one-pass plan wrote intermediates: %v", files)
	}
}

// zeroJoinStatement is SELECT SUM(lo_revenue) AS revenue FROM lineorder
// WHERE lo_discount < 3 as a bound logical plan.
func zeroJoinStatement(cat *core.Catalog) *plan.Logical {
	var n plan.Node = &plan.Scan{Table: cat.FactName, Source: cat.FactSchema, Fact: true}
	n = &plan.Filter{Input: n, Pred: expr.Lt(expr.Col("lo_discount"), expr.ConstInt(3))}
	return &plan.Logical{Name: "zero-joins", Root: &plan.Aggregate{Input: n, Agg: expr.Col("lo_revenue"), AggName: "revenue"}}
}

// TestRunPrefersSinglePass checks the fast path is used when memory
// suffices.
func TestRunPrefersSinglePass(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q, _ := ssb.QueryByName("Q2.1")
	_, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes != 1 {
		t.Error("should not stage with ample memory")
	}
}

// TestRunPropagatesNonOOM ensures unrelated failures are not retried as
// staged plans.
func TestRunPropagatesNonOOM(t *testing.T) {
	e := newEnv(t, 1, 0.002)
	eng := e.engine(core.Options{})
	bad := &core.Query{Name: "bad"} // fails validation, not OOM
	if _, _, err := eng.Run(context.Background(), bad); err == nil {
		t.Error("expected validation error")
	}
}
