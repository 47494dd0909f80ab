package core_test

import (
	"context"
	"sync"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestConcurrentQueries runs several queries simultaneously over the same
// cluster and engine — the multi-workload setting §8 leaves as future work
// for scheduling policy, but which the engine must at least execute
// correctly (slots are shared, JVM pools are per job, memory accounting is
// global).
func TestConcurrentQueries(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	names := []string{"Q1.1", "Q2.1", "Q3.2", "Q4.3"}

	var wg sync.WaitGroup
	errs := make([]error, len(names))
	sets := make([]*results.ResultSet, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			q, err := ssb.QueryByName(name)
			if err != nil {
				errs[i] = err
				return
			}
			rs, _, err := eng.Run(context.Background(), q)
			sets[i], errs[i] = rs, err
		}(i, name)
	}
	wg.Wait()

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
			t.Errorf("%s under concurrency: %s", name, why)
		}
	}
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
}

// TestConcurrentMixedEngines runs Clydesdale and the staged plan at once.
func TestConcurrentMixedEngines(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q1, _ := ssb.QueryByName("Q2.2")
	q2, _ := ssb.QueryByName("Q3.3")

	var wg sync.WaitGroup
	var rs1, rs2 *results.ResultSet
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); rs1, _, err1 = eng.Run(context.Background(), q1) }()
	go func() { defer wg.Done(); rs2, _, err2 = runStaged(eng, q2) }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v / %v", err1, err2)
	}
	w1, _ := refexec.Run(e.gen, q1)
	w2, _ := refexec.Run(e.gen, q2)
	if ok, why := results.Equivalent(rs1, w1, 1e-9); !ok {
		t.Errorf("Q2.2: %s", why)
	}
	if ok, why := results.Equivalent(rs2, w2, 1e-9); !ok {
		t.Errorf("Q3.3 staged: %s", why)
	}
}
