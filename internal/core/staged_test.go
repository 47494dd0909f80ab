package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// runStaged forces the §5.1 plan: it lowers q as Run would and executes the
// plan's one-step-per-pass form.
func runStaged(eng *core.Engine, q *core.Query) (*results.ResultSet, *core.Report, error) {
	l, err := core.LogicalOf(q, eng.Catalog())
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Lower(l)
	if err != nil {
		return nil, nil, err
	}
	return eng.RunPlan(context.Background(), p.OneStepPerPass())
}

// TestStagedMatchesReference runs every SSB query through the §5.1 staged
// plan and checks the answers against the reference executor — under full
// Clydesdale and under each ablation that changes how a join pass reads and
// probes (its carried-row sink runs over block and row readers, on one
// thread or many).
func TestStagedMatchesReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	for name, ab := range map[string]core.Ablate{
		"none":               0,
		"no-columnar":        core.NoColumnarStorage,
		"no-block-iteration": core.NoBlockIteration,
		"no-multithread":     core.NoMultiThreading,
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
			if !rep.Staged {
				t.Errorf("%s %s: report does not say staged", name, q.Name)
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
	per, err := core.EstimateDimHashBytes(q.Dims, func(tbl string, fn func(records.Record) error) error {
		return gen.Each(tbl, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, b := range per {
		sum += b
		if b > max {
			max = b
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

	// Run tries the single-job plan, which must OOM — the fallback runs on
	// no other error — and picks the staged path automatically.
	rs2, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if !rep.Staged {
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
	if rep.Staged {
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
