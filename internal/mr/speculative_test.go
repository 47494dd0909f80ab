package mr

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clydesdale/internal/records"
)

// stragglerMapper parks the *first* attempt of one task, simulating a
// degraded machine, until a backup attempt of the same task has mapped its
// whole split and then won; backup attempts run at full speed.
type stragglerMapper struct {
	slowTask   string
	backupDone chan struct{} // closed by the backup's Cleanup
	ctx        *TaskContext
}

func (m *stragglerMapper) Setup(ctx *TaskContext) error { m.ctx = ctx; return nil }
func (m *stragglerMapper) Cleanup(Collector) error {
	if m.ctx.TaskID == m.slowTask && m.ctx.Attempt == 2 {
		close(m.backupDone)
	}
	return nil
}
func (m *stragglerMapper) Map(_, v records.Record, out Collector) error {
	if m.ctx.TaskID == m.slowTask && m.ctx.Attempt == 1 {
		select {
		case <-m.backupDone:
		case <-m.ctx.runCtx.Done():
			return m.ctx.Err()
		}
		// The backup is past its last record; it is superseding this attempt
		// as fast as the host runs it.
		for !m.ctx.Superseded() {
			runtime.Gosched()
		}
		return errSuperseded
	}
	return out.Collect(v, records.Make(countSchema, records.Int(1)))
}

// bigWordSplit builds one split with n copies of the same word.
func bigWordSplit(word string, n int, hosts ...string) *MemorySplit {
	s := &MemorySplit{Hosts: hosts}
	for i := 0; i < n; i++ {
		s.Pairs = append(s.Pairs, KV{Value: records.Make(wordSchema, records.Str(word))})
	}
	return s
}

// TestSpeculativeExecutionMitigatesStraggler runs two splits on two
// one-slot nodes; the first attempt of m-0 never finishes on its own. The
// dispatch that follows m-1's completion finds nothing pending and starts
// the one backup the job needs on the freed node; the backup wins, the
// straggling attempt abandons itself, and the counts stay exact. No clock is
// involved: every step waits on the event before it (the 30 s context is a
// watchdog for a scheduler that never launches the backup, not a margin).
func TestSpeculativeExecutionMitigatesStraggler(t *testing.T) {
	e := newTestEngine(2)
	const rows = 4000
	splits := []*MemorySplit{
		bigWordSplit("x", rows), // m-0: straggles on its first attempt
		bigWordSplit("y", 50),
	}
	backupDone := make(chan struct{})
	out := &MemoryOutput{}
	job := &Job{
		Name: "speculative",
		// A whole node's memory per task: one map slot per node, so the only
		// slot a backup can get is the one m-1 frees.
		Conf:  Conf{Speculative: true, TaskMemory: e.Cluster().Config().MemoryPerNode},
		Input: &MemoryInput{SplitsList: splits},
		NewMapper: func() Mapper {
			return &stragglerMapper{slowTask: "m-0", backupDone: backupDone}
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k records.Record, vs Values, c Collector) error {
				var sum int64
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					sum += v.Get("n").Int64()
				}
				return c.Collect(k, records.Make(countSchema, records.Int(sum)))
			})
		},
		Output:         out,
		NumReduceTasks: 1,
		KeySchema:      wordSchema,
		ValueSchema:    countSchema,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}

	// Counts must be exact despite the duplicate attempt.
	got := countsFrom(out)
	if got["x"] != rows || got["y"] != 50 {
		t.Errorf("counts = %v", got)
	}
	if n := res.Counters.Get(CtrSpeculativeMaps); n != 1 {
		t.Errorf("%s = %d, want 1", CtrSpeculativeMaps, n)
	}
	if n := res.Counters.Get(CtrMapTasks); n != 3 {
		t.Errorf("%s = %d, want 3 (m-0 twice, m-1 once)", CtrMapTasks, n)
	}
	if n := res.Counters.Get(CtrTaskRetries); n != 0 {
		t.Errorf("%s = %d, want 0: a superseded attempt is not a failure", CtrTaskRetries, n)
	}
	var m0 []TaskReport
	for _, r := range res.Tasks {
		if r.TaskID == "m-0" {
			m0 = append(m0, r)
		}
	}
	if len(m0) != 1 || m0[0].Attempts != 2 || m0[0].Node != "node-1" {
		t.Errorf("m-0 reports = %+v, want one, from attempt 2 on node-1", m0)
	}
}

// TestSpeculationDisabledByDefault ensures no backup attempts run unless
// asked for.
func TestSpeculationDisabledByDefault(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b"}, []string{"c"})
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrSpeculativeMaps) != 0 {
		t.Error("speculation ran without being enabled")
	}
}

// TestSpeculationIgnoredForMapOnlyJobs: a losing attempt of a map-only job
// would write duplicate output, so the engine must not speculate there.
func TestSpeculationIgnoredForMapOnlyJobs(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	job := &Job{
		Name:  "maponly-spec",
		Conf:  Conf{Speculative: true},
		Input: &MemoryInput{SplitsList: []*MemorySplit{bigWordSplit("z", 300)}},
		NewMapper: func() Mapper {
			return MapperFunc(func(_, v records.Record, c Collector) error {
				return c.Collect(v, records.Record{})
			})
		},
		Output: out,
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrSpeculativeMaps) != 0 {
		t.Error("map-only job speculated")
	}
	if len(out.Pairs()) != 300 {
		t.Errorf("output rows = %d, want 300", len(out.Pairs()))
	}
}
