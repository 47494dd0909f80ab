package core_test

import (
	"context"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// jobWatch is a span sink that looks at the cluster at every job boundary.
// Spans reach a sink synchronously and an attempt's queue-wait span is
// emitted before the attempt does anything, so when the first span of a job
// arrives no task of that job has reserved a byte yet: whatever the nodes
// hold then was left behind by the job before.
type jobWatch struct {
	nodes []*cluster.Node

	mu       sync.Mutex
	jobs     []string                  // job IDs in first-seen order
	leftover map[string]int64          // job → bytes found reserved when it started
	builds   map[string]map[string]int // job → "node/table" → hash-build spans
	probes   map[string]map[string]int // job → node → probe spans, one per map task
}

func newJobWatch(c *cluster.Cluster) *jobWatch {
	return &jobWatch{nodes: c.Nodes(), leftover: map[string]int64{},
		builds: map[string]map[string]int{}, probes: map[string]map[string]int{}}
}

func (w *jobWatch) Emit(s obs.Span) {
	if s.Job == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, seen := w.builds[s.Job]; !seen {
		w.jobs = append(w.jobs, s.Job)
		w.builds[s.Job], w.probes[s.Job] = map[string]int{}, map[string]int{}
		for _, n := range w.nodes {
			w.leftover[s.Job] += n.MemoryUsed()
		}
	}
	switch s.Name {
	case obs.PhaseHashBuild:
		w.builds[s.Job][s.Node+"/"+s.Attrs["table"]]++
	case obs.PhaseProbe:
		w.probes[s.Job][s.Node]++
	}
}

// TestTablesLiveAsLongAsTheirJob: a standalone engine's hash tables belong
// to the job that built them (§5.2). Q4.1, four dimensions, runs as lowered
// (one job), one step per pass (four) and through the ErrOOM re-run of a
// cluster whose nodes hold the largest table but not all four (a failed job,
// then four). On two-slot nodes with several fact partitions each, and a
// block small enough that a multi-split packs only two of them (so a node
// runs several tasks), every job builds each of its tables once per node it runs on, every later task
// there reuses them, no job starts with a byte of an earlier one still
// reserved, and none is reserved at the end.
func TestTablesLiveAsLongAsTheirJob(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.Run(gen, q)
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
	ample, tight := cluster.Testing(2), cluster.Testing(2)
	tight.MemoryPerNode = max + (sum-max)/4

	for _, tc := range []struct {
		name   string
		cfg    cluster.Config
		run    func(eng *core.Engine) (*results.ResultSet, *core.Report, error)
		tables []int // per job that ran, the tables it joins
		failed int   // leading jobs whose counters the report does not carry
	}{
		{"as lowered", ample, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return eng.Run(context.Background(), q)
		}, []int{4}, 0},
		{"one step per pass", ample, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return runStaged(eng, q)
		}, []int{1, 1, 1, 1}, 0},
		{"ErrOOM re-run", tight, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return eng.Run(context.Background(), q)
		}, []int{4, 1, 1, 1, 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(tc.cfg)
			fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 12, Seed: 13})
			lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
			if err != nil {
				t.Fatal(err)
			}
			watch := newJobWatch(c)
			tr := obs.NewTracer()
			tr.AddSink(watch)
			eng := core.New(mr.NewEngine(c, fs, mr.Options{Tracer: tr}), lay.Catalog(), core.Options{})

			rs, rep, err := tc.run(eng)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
				t.Error(why)
			}
			if rep.Passes != len(tc.tables)-tc.failed || len(watch.jobs) != len(tc.tables) {
				t.Fatalf("report says %d passes and %d jobs left spans; want %d jobs, %d of them failed",
					rep.Passes, len(watch.jobs), len(tc.tables), tc.failed)
			}
			for _, n := range c.Nodes() {
				if used := n.MemoryUsed(); used != 0 {
					t.Errorf("%s holds %d bytes after the query", n.ID(), used)
				}
			}
			var built, reuses int64
			for j, job := range watch.jobs {
				if left := watch.leftover[job]; left != 0 {
					t.Errorf("job %d started with %d bytes of an earlier job's tables still reserved", j+1, left)
				}
				if j < tc.failed {
					continue // its attempts retried the table that did not fit
				}
				for nt, n := range watch.builds[job] {
					if n != 1 {
						t.Errorf("job %d built %s %d times", j+1, nt, n)
					}
				}
				nodes, tasks := len(watch.probes[job]), 0
				for _, n := range watch.probes[job] {
					tasks += n
				}
				if tasks <= nodes {
					t.Errorf("fixture: job %d ran %d map tasks on %d nodes, no consecutive tasks to share tables", j+1, tasks, nodes)
				}
				if got := len(watch.builds[job]); got != nodes*tc.tables[j] {
					t.Errorf("job %d: %d hash builds on %d nodes, want each of its %d tables once per node", j+1, got, nodes, tc.tables[j])
				}
				built += int64(nodes * tc.tables[j])
				reuses += int64(tasks - nodes)
			}
			// One build per table per node per job, one reuse per task after a
			// node's first: what the per-job, per-node shared build always
			// reported.
			ctrs := rep.Job.Counters
			if got := ctrs.Get(core.CtrHashTablesBuilt); got != built {
				t.Errorf("%s = %d, want %d", core.CtrHashTablesBuilt, got, built)
			}
			if got := ctrs.Get(core.CtrHashReuses); got != reuses {
				t.Errorf("%s = %d, want %d", core.CtrHashReuses, got, reuses)
			}
		})
	}
}
