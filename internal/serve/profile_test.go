package serve_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// TestConcurrentProfilesDisjoint is the tentpole correlation test: eight
// mixed SSB queries race through one session and every one must come out
// the other side as its own coherent span tree — eight distinct traces,
// each rooted at a query span carrying the right query name, zero orphans,
// zero drops, task spans nested under job spans, and per-phase walls that
// partition the query's wall clock exactly. Run under -race by `make
// race-concurrency`.
func TestConcurrentProfilesDisjoint(t *testing.T) {
	const n = 8
	e := newEnv(t, 3, 0.002, mr.Options{})
	sess := e.session(serve.Options{MaxConcurrent: n})
	defer sess.Close()

	names := []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q1.2", "Q2.2", "Q3.4", "Q4.2"}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := ssb.QueryByName(names[i])
			if err != nil {
				errs[i] = err
				return
			}
			_, _, errs[i] = sess.Query(context.Background(), q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}

	rec := sess.Profiles()
	if rec == nil {
		t.Fatal("session has no flight recorder")
	}
	profiles := rec.Recent()
	if len(profiles) != n {
		t.Fatalf("flight recorder holds %d profiles, want %d", len(profiles), n)
	}

	traces := make(map[string]bool, n)
	gotNames := make(map[string]bool, n)
	for _, p := range profiles {
		if traces[p.Trace] {
			t.Fatalf("trace %s recorded twice — queries cross-attached", p.Trace)
		}
		traces[p.Trace] = true
		if p.Root == nil || p.Root.Span.Name != obs.PhaseQuery {
			t.Fatalf("trace %s: root is not a query span", p.Trace)
		}
		gotNames[p.Query] = true
		if p.Orphans != 0 {
			t.Errorf("%s (%s): %d orphan spans", p.Query, p.Trace, p.Orphans)
		}
		if p.Dropped != 0 {
			t.Errorf("%s (%s): %d dropped spans", p.Query, p.Trace, p.Dropped)
		}
		if got, want := p.PhaseWallTotal(), p.Wall; got != want {
			t.Errorf("%s (%s): phase walls sum to %v, want %v", p.Query, p.Trace, got, want)
		}
		checkNesting(t, p.Trace, p.Root, "")
	}
	for _, name := range names {
		if !gotNames[name] {
			t.Errorf("no profile recorded for %s", name)
		}
	}
}

// checkNesting walks a profile tree asserting the layering every span is
// emitted with: every span belongs to the profile's trace, job spans sit
// under the query root, task spans under job spans (never under a peer
// task), an attempt's phases under its task, hash-build and probe under
// map, read under probe, and each hdfs-read under the read or map that did
// it, or under the query or job for driver-side reads.
func checkNesting(t *testing.T, trace string, n *obs.ProfileNode, parentName string) {
	t.Helper()
	if n.Span.Trace != trace {
		t.Errorf("span %s (%s) carries trace %q inside profile %q", n.Span.Name, n.Span.SpanID, n.Span.Trace, trace)
	}
	var want []string
	switch n.Span.Name {
	case obs.PhaseJob:
		want = []string{obs.PhaseQuery}
	case obs.PhaseTask:
		want = []string{obs.PhaseJob}
	case obs.PhaseLaunch, obs.PhaseJVMStart, obs.PhaseQueueWait, obs.PhaseMap, obs.PhaseCombine,
		obs.PhaseSpill, obs.PhaseShuffle, obs.PhaseSort, obs.PhaseReduce:
		want = []string{obs.PhaseTask}
	case obs.PhaseProbe, obs.PhaseHashBuild:
		want = []string{obs.PhaseMap}
	case obs.PhaseRead:
		want = []string{obs.PhaseProbe}
	case obs.PhaseHDFSRead:
		want = []string{obs.PhaseRead, obs.PhaseMap, obs.PhaseQuery, obs.PhaseJob}
	}
	if want != nil && !slices.Contains(want, parentName) {
		t.Errorf("%s span %s (%s) nests under %q, want one of %v", n.Span.Name, n.Span.TaskID, n.Span.SpanID, parentName, want)
	}
	for _, c := range n.Children {
		checkNesting(t, trace, c, n.Span.Name)
	}
}
