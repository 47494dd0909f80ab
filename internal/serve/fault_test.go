package serve_test

import (
	"context"
	"sync"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// TestServeSurvivesNodeDeathBetweenQueries is the end-to-end recovery test
// for the serving layer: a node dies between two queries of one session.
// The dead node's cached tables must be evicted (their reservations died
// with the node), and the next queries must still return exact results on
// the surviving nodes.
func TestServeSurvivesNodeDeathBetweenQueries(t *testing.T) {
	e := newEnv(t, 4, 0.002, mr.Options{})
	s := e.session(serve.Options{})
	defer s.Close()

	check := func(name string) *core.Report {
		t.Helper()
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rs, rep, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Fatalf("%s: %s", name, why)
		}
		return rep
	}

	// The victim is a node that ran a map task of Q2.1 and so holds its
	// tables; which nodes do is the scheduler's choice.
	victim := mapNodes(check("Q2.1").Job)[0]
	evBefore := s.Stats().Evictions

	// The node dies; the session's death watcher drops its cached tables
	// and the namenode re-replicates its blocks.
	e.cluster.Node(victim).Kill()
	_, _, _ = e.fs.OnNodeFailure(victim)

	if ev := s.Stats().Evictions; ev <= evBefore {
		t.Errorf("evictions %d -> %d; dead node's cached tables were not dropped", evBefore, ev)
	}

	// Warm path (same query: survivors' tables are cache hits) and a cold
	// path both still serve exact results.
	check("Q2.1")
	check("Q3.1")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)
}

// TestServeAdmissionNoLivelockWhenCacheFull: with a cache budget far below
// one query's tables and an admission budget below one query's cost, every
// entry is mid-build or over-budget whenever a query runs — eviction can
// never reach the budget. Admission must fall back to its escape valve
// (admit when nothing is in flight) and serialize the workload rather than
// livelock it.
func TestServeAdmissionNoLivelockWhenCacheFull(t *testing.T) {
	e := newEnv(t, 3, 0.002, mr.Options{})
	s := e.session(serve.Options{
		MaxConcurrent:     4,
		CacheBudget:       1,  // no table ever fits
		AdmissionBudget:   1,  // no query is ever affordable
		ResultCacheBudget: -1, // repeats must reach admission, not the result cache
	})
	defer s.Close()

	names := []string{"Q1.1", "Q2.1", "Q3.1", "Q1.2", "Q2.1", "Q3.1"}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	sets := make([]*results.ResultSet, len(names))
	for i, name := range names {
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, q *core.Query) {
			defer wg.Done()
			sets[i], _, errs[i] = s.Query(context.Background(), q)
		}(i, q)
	}
	wg.Wait() // livelock shows up here as a test timeout

	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		q, _ := ssb.QueryByName(name)
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(sets[i], want, 1e-9); !ok {
			t.Errorf("%s: %s", name, why)
		}
	}

	stats := s.Stats()
	if stats.Admitted != int64(len(names)) {
		t.Errorf("admitted %d, want %d", stats.Admitted, len(names))
	}
	if stats.PeakConcurrent != 1 {
		t.Errorf("peak concurrency %d; over-budget queries must serialize through the escape valve", stats.PeakConcurrent)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)
}
