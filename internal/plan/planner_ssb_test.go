package plan_test

import (
	"context"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestPlannerSSBEndToEnd drives all 13 SSB queries through the full planner
// path — bind to the IR, gather stats, choose a physical plan, execute it —
// and holds the results to the reference executor. On a loaded dataset the
// chooser must pick the star join for every SSB query (they are pure stars
// with room to spare), and RunPlan must agree with refexec exactly.
func TestPlannerSSBEndToEnd(t *testing.T) {
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{})
	for _, q := range ssb.Queries() {
		l, err := core.LogicalOf(q, lay.Catalog())
		if err != nil {
			t.Fatalf("%s: bind: %v", q.Name, err)
		}
		phys, err := eng.PlanLogical(l)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		if phys.Kind != plan.KindStar {
			t.Errorf("%s: chose %s, want %s", q.Name, phys.Kind, plan.KindStar)
		}
		rs, _, err := eng.RunPlan(context.Background(), phys)
		if err != nil {
			t.Fatalf("%s: run: %v", q.Name, err)
		}
		want, err := refexec.Run(gen, q)
		if err != nil {
			t.Fatalf("%s: ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s: %s\nplanner:\n%svs reference:\n%s", q.Name, why, rs, want)
		}
	}
}
