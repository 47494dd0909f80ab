package serve_test

import (
	"context"
	"slices"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// TestQueryPlanRecordsEveryExit: each exit of QueryPlan records one SLO
// outcome and emits one root span. A plan that does not decompose is an
// error with no latency, and its root carries no result-cache outcome; a
// miss and then a hit are "ok" with a latency, and their roots say what the
// cache did.
func TestQueryPlanRecordsEveryExit(t *testing.T) {
	e := newEnv(t, 2, 0.001, mr.Options{})
	sess := e.session(serve.Options{})
	defer sess.Close()
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LogicalOf(q, e.lay.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := sess.QueryPlan(ctx, &plan.Logical{Name: q.Name}); err == nil {
		t.Fatal("an empty plan ran")
	}
	for range 2 {
		if _, _, err := sess.QueryPlan(ctx, l); err != nil {
			t.Fatal(err)
		}
	}

	m, class := sess.Metrics(), "serve.slo."+serve.QueryClass(q.Name)+"."
	got := []int64{
		m.Counter(class + "queries").Value(), m.Counter(class + "errors").Value(),
		m.Counter(class + "shed").Value(), m.Histogram(class + "latency_ns").Count(),
	}
	if want := []int64{3, 1, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("queries, errors, shed, latencies = %v, want %v", got, want)
	}
	var roots []string
	recent := sess.Profiles().Recent() // newest first
	for i := len(recent) - 1; i >= 0; i-- {
		p := recent[i]
		roots = append(roots, p.Root.Span.Attrs["status"]+"/"+p.ResultCache)
	}
	if want := []string{"error/", "ok/miss", "ok/hit"}; !slices.Equal(roots, want) {
		t.Errorf("root spans (status/result_cache) = %v, want %v", roots, want)
	}
}
