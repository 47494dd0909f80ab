package mr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

var (
	wordSchema  = records.NewSchema(records.F("word", records.KindString))
	countSchema = records.NewSchema(records.F("n", records.KindInt64))
)

func newTestEngine(workers int) *Engine {
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{Seed: 11})
	return NewEngine(c, fs, Options{})
}

// wordSplits builds memory splits of single-word records.
func wordSplits(hostsFor func(i int) []string, batches ...[]string) []*MemorySplit {
	var out []*MemorySplit
	for i, words := range batches {
		s := &MemorySplit{}
		if hostsFor != nil {
			s.Hosts = hostsFor(i)
		}
		for _, w := range words {
			s.Pairs = append(s.Pairs, KV{Value: records.Make(wordSchema, records.Str(w))})
		}
		out = append(out, s)
	}
	return out
}

func wordCountJob(splits []*MemorySplit, out *MemoryOutput, reducers int) *Job {
	return &Job{
		Name:   "wordcount",
		Input:  &MemoryInput{SplitsList: splits},
		Output: out,
		NewMapper: func() Mapper {
			return MapperFunc(func(_, v records.Record, c Collector) error {
				return c.Collect(v, records.Make(countSchema, records.Int(1)))
			})
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
		NumReduceTasks: reducers,
		KeySchema:      wordSchema,
		ValueSchema:    countSchema,
	}
}

func countsFrom(out *MemoryOutput) map[string]int64 {
	m := map[string]int64{}
	for _, kv := range out.Pairs() {
		m[kv.Key.Get("word").Str()] = kv.Value.Get("n").Int64()
	}
	return m
}

func TestWordCount(t *testing.T) {
	e := newTestEngine(3)
	out := &MemoryOutput{}
	splits := wordSplits(nil,
		[]string{"a", "b", "a", "c"},
		[]string{"b", "a"},
		[]string{"c", "c", "c"},
	)
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := countsFrom(out)
	want := map[string]int64{"a": 3, "b": 2, "c": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v", got)
	}
	if res.Counters.Get(CtrMapInputRecords) != 9 {
		t.Errorf("MAP_INPUT_RECORDS = %d", res.Counters.Get(CtrMapInputRecords))
	}
	if res.Counters.Get(CtrMapTasks) != 3 {
		t.Errorf("MAP_TASKS = %d", res.Counters.Get(CtrMapTasks))
	}
	if res.Counters.Get(CtrReduceTasks) != 2 {
		t.Errorf("REDUCE_TASKS = %d", res.Counters.Get(CtrReduceTasks))
	}
	if res.Counters.Get(CtrReduceInputGroups) != 3 {
		t.Errorf("REDUCE_INPUT_GROUPS = %d", res.Counters.Get(CtrReduceInputGroups))
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"x", "x", "x", "y"}, []string{"x", "y"})
	job := wordCountJob(splits, out, 1)
	job.NewCombiner = job.NewReducer
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got := countsFrom(out)
	if got["x"] != 4 || got["y"] != 2 {
		t.Errorf("counts = %v", got)
	}
	// Combiner collapses duplicate keys per split: split 1 has 4 records in
	// 2 groups, split 2 has 2 records in 2 groups → 4 combined outputs.
	if res.Counters.Get(CtrCombineInput) != 6 {
		t.Errorf("COMBINE_INPUT = %d", res.Counters.Get(CtrCombineInput))
	}
	if res.Counters.Get(CtrCombineOutput) != 4 {
		t.Errorf("COMBINE_OUTPUT = %d", res.Counters.Get(CtrCombineOutput))
	}
	if res.Counters.Get(CtrReduceInputRecords) != 4 {
		t.Errorf("REDUCE_INPUT_RECORDS = %d", res.Counters.Get(CtrReduceInputRecords))
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"p", "q"}, []string{"r"})
	job := &Job{
		Name:   "identity",
		Input:  &MemoryInput{SplitsList: splits},
		Output: out,
		NewMapper: func() Mapper {
			return MapperFunc(func(_, v records.Record, c Collector) error {
				return c.Collect(v, records.Record{})
			})
		},
		NumReduceTasks: 0,
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs()) != 3 {
		t.Errorf("output = %v", out.Pairs())
	}
	if res.Counters.Get(CtrReduceTasks) != 0 {
		t.Error("map-only job ran reducers")
	}
}

func TestJobValidation(t *testing.T) {
	e := newTestEngine(1)
	out := &MemoryOutput{}
	in := &MemoryInput{SplitsList: wordSplits(nil, []string{"a"})}
	mapper := func() Mapper {
		return MapperFunc(func(_, v records.Record, c Collector) error { return nil })
	}
	cases := []*Job{
		{Output: out, NewMapper: mapper},                               // no input
		{Input: in, NewMapper: mapper},                                 // no output
		{Input: in, Output: out},                                       // no mapper/runner
		{Input: in, Output: out, NewMapper: mapper, NumReduceTasks: 2}, // no reducer
	}
	for i, job := range cases {
		if _, err := e.Submit(context.Background(), job); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLocalityPreference(t *testing.T) {
	e := newTestEngine(3)
	// Every split is local to exactly one node; schedule should run them all
	// data-local.
	hosts := func(i int) []string { return []string{fmt.Sprintf("node-%d", i%3)} }
	splits := wordSplits(hosts,
		[]string{"a"}, []string{"b"}, []string{"c"},
		[]string{"d"}, []string{"e"}, []string{"f"},
	)
	out := &MemoryOutput{}
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrDataLocalMaps) != 6 {
		t.Errorf("DATA_LOCAL_MAPS = %d, want 6 (remote=%d)",
			res.Counters.Get(CtrDataLocalMaps), res.Counters.Get(CtrRemoteMaps))
	}
}

func TestCapacitySchedulerOneTaskPerNode(t *testing.T) {
	workers := 3
	e := newTestEngine(workers)
	nodeMem := e.Cluster().Config().MemoryPerNode

	var mu sync.Mutex
	running := map[string]int{}
	maxPerNode := 0

	splits := wordSplits(nil,
		[]string{"a"}, []string{"b"}, []string{"c"},
		[]string{"d"}, []string{"e"}, []string{"f"},
	)
	out := &MemoryOutput{}
	job := wordCountJob(splits, out, 1)
	// Request the whole node's memory → capacity scheduler must cap at one
	// concurrent task per node (§5.2).
	job.Conf = Conf{TaskMemory: nodeMem}
	base := job.NewMapper
	job.NewMapper = func() Mapper {
		return &instrumentedMapper{inner: base(), enter: func(node string) {
			mu.Lock()
			running[node]++
			if running[node] > maxPerNode {
				maxPerNode = running[node]
			}
			mu.Unlock()
		}, exit: func(node string) {
			mu.Lock()
			running[node]--
			mu.Unlock()
		}}
	}
	if _, err := e.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if maxPerNode > 1 {
		t.Errorf("max concurrent tasks per node = %d, want 1", maxPerNode)
	}
}

type instrumentedMapper struct {
	inner Mapper
	enter func(node string)
	exit  func(node string)
	node  string
}

func (m *instrumentedMapper) Setup(ctx *TaskContext) error {
	m.node = ctx.Node().ID()
	m.enter(m.node)
	return m.inner.Setup(ctx)
}

func (m *instrumentedMapper) Map(k, v records.Record, c Collector) error {
	return m.inner.Map(k, v, c)
}

func (m *instrumentedMapper) Cleanup(c Collector) error {
	m.exit(m.node)
	return m.inner.Cleanup(c)
}

// TestJVMReuseSharesStatics: with reuse on, the pool hands consecutive tasks
// of a job on one node the same JVM (what would let them share static state,
// §5.2), and the job's counters say so; with reuse off every task starts its
// own.
func TestJVMReuseSharesStatics(t *testing.T) {
	e := newTestEngine(1) // one node so all tasks land together

	run := func(reuse bool) (jvms map[*JVM]bool, c *Counters) {
		splits := wordSplits(nil, []string{"a"}, []string{"b"}, []string{"c"}, []string{"d"})
		job := wordCountJob(splits, &MemoryOutput{}, 1)
		// One task at a time per node so consecutive tasks can reuse.
		job.Conf = Conf{JVMReuse: reuse, TaskMemory: e.Cluster().Config().MemoryPerNode}
		var mu sync.Mutex
		jvms = make(map[*JVM]bool)
		base := job.NewMapper
		job.NewMapper = func() Mapper {
			return &jvmSpyMapper{inner: base(), saw: func(j *JVM) {
				mu.Lock()
				jvms[j] = true
				mu.Unlock()
			}}
		}
		res, err := e.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return jvms, res.Counters
	}

	// Four map tasks and the reduce task, one after another on the one node.
	jvms, c := run(true)
	if len(jvms) != 1 || c.Get(CtrJVMsStarted) != 1 || c.Get(CtrJVMReuses) != 4 {
		t.Errorf("with JVM reuse: map tasks saw %d JVMs, %d started, %d reuses; want 1, 1, 4",
			len(jvms), c.Get(CtrJVMsStarted), c.Get(CtrJVMReuses))
	}
	jvms, c = run(false)
	if len(jvms) != 4 || c.Get(CtrJVMsStarted) != 5 || c.Get(CtrJVMReuses) != 0 {
		t.Errorf("without JVM reuse: map tasks saw %d JVMs, %d started, %d reuses; want 4 (one per task), 5, 0",
			len(jvms), c.Get(CtrJVMsStarted), c.Get(CtrJVMReuses))
	}
}

// jvmSpyMapper reports the JVM each task it serves runs in.
type jvmSpyMapper struct {
	inner Mapper
	saw   func(*JVM)
}

func (m *jvmSpyMapper) Setup(ctx *TaskContext) error {
	m.saw(ctx.jvm)
	return m.inner.Setup(ctx)
}

func (m *jvmSpyMapper) Map(k, v records.Record, c Collector) error { return m.inner.Map(k, v, c) }
func (m *jvmSpyMapper) Cleanup(c Collector) error                  { return m.inner.Cleanup(c) }

func TestTaskRetrySucceedsAfterTransientFailure(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b"})
	job := wordCountJob(splits, out, 1)
	var failures atomic.Int64
	job.FailureInjector = func(taskID string, attempt int) error {
		if strings.HasPrefix(taskID, "m-") && attempt == 1 {
			failures.Add(1)
			return errors.New("injected transient failure")
		}
		return nil
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if failures.Load() != 1 {
		t.Errorf("injected failures = %d", failures.Load())
	}
	if res.Counters.Get(CtrTaskRetries) != 1 {
		t.Errorf("TASK_RETRIES = %d", res.Counters.Get(CtrTaskRetries))
	}
	if got := countsFrom(out); got["a"] != 1 || got["b"] != 1 {
		t.Errorf("counts = %v", got)
	}
}

func TestTaskFailsJobAfterMaxAttempts(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	job := wordCountJob(wordSplits(nil, []string{"a"}), out, 1)
	job.FailureInjector = func(taskID string, attempt int) error {
		if strings.HasPrefix(taskID, "m-") {
			return errors.New("permanent failure")
		}
		return nil
	}
	if _, err := e.Submit(context.Background(), job); err == nil || !strings.Contains(err.Error(), "permanent failure") {
		t.Errorf("expected permanent failure, got %v", err)
	}
}

func TestReduceTaskRetry(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	job := wordCountJob(wordSplits(nil, []string{"a"}), out, 1)
	job.FailureInjector = func(taskID string, attempt int) error {
		if strings.HasPrefix(taskID, "r-") && attempt == 1 {
			return errors.New("injected reduce failure")
		}
		return nil
	}
	if _, err := e.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if got := countsFrom(out); got["a"] != 1 {
		t.Errorf("counts = %v", got)
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	e := newTestEngine(1)
	job := &Job{
		Input:  &MemoryInput{SplitsList: wordSplits(nil, []string{"a"})},
		Output: &MemoryOutput{},
		NewMapper: func() Mapper {
			return MapperFunc(func(_, _ records.Record, _ Collector) error {
				return errors.New("boom")
			})
		},
	}
	if _, err := e.Submit(context.Background(), job); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected mapper error, got %v", err)
	}
}

func TestMapperPanicIsCaught(t *testing.T) {
	e := newTestEngine(1)
	job := &Job{
		Input:  &MemoryInput{SplitsList: wordSplits(nil, []string{"a"})},
		Output: &MemoryOutput{},
		NewMapper: func() Mapper {
			return MapperFunc(func(_, _ records.Record, _ Collector) error {
				panic("kaboom")
			})
		},
	}
	if _, err := e.Submit(context.Background(), job); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("expected panic error, got %v", err)
	}
}

func TestTaskMemoryReservationOOM(t *testing.T) {
	e := newTestEngine(1)
	nodeMem := e.Cluster().Config().MemoryPerNode
	slots := int64(e.Cluster().Config().MapSlots)
	out := &MemoryOutput{}
	job := &Job{
		Input:  &MemoryInput{SplitsList: wordSplits(nil, []string{"a"})},
		Output: out,
		NewMapper: func() Mapper {
			return &oomMapper{want: nodeMem/slots + 1} // exceeds default allowance
		},
	}
	_, err := e.Submit(context.Background(), job)
	if err == nil || !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Errorf("expected OOM, got %v", err)
	}
	// With a bigger declared task memory it fits.
	job2 := &Job{
		Conf:   Conf{TaskMemory: nodeMem},
		Input:  &MemoryInput{SplitsList: wordSplits(nil, []string{"a"})},
		Output: &MemoryOutput{},
		NewMapper: func() Mapper {
			return &oomMapper{want: nodeMem/slots + 1}
		},
	}
	if _, err := e.Submit(context.Background(), job2); err != nil {
		t.Errorf("expected success with larger allowance: %v", err)
	}
	// Node memory fully released afterwards.
	if used := e.Cluster().Nodes()[0].MemoryUsed(); used != 0 {
		t.Errorf("leaked %d bytes of node memory", used)
	}
}

// baseMapper gives a test mapper no-op Setup and Cleanup.
type baseMapper struct{}

func (baseMapper) Setup(*TaskContext) error { return nil }
func (baseMapper) Cleanup(Collector) error  { return nil }

type oomMapper struct {
	baseMapper
	want int64
}

func (m *oomMapper) Setup(ctx *TaskContext) error { return ctx.ReserveMemory(m.want) }
func (m *oomMapper) Map(_, v records.Record, c Collector) error {
	return c.Collect(v, records.Record{})
}

func TestDistributedCache(t *testing.T) {
	e := newTestEngine(3)
	if err := e.FS().WriteFile("/cache/dim", "", []byte("dimension-table")); err != nil {
		t.Fatal(err)
	}
	out := &MemoryOutput{}
	var sawData atomic.Int64
	job := &Job{
		Input:      &MemoryInput{SplitsList: wordSplits(nil, []string{"a"}, []string{"b"}, []string{"c"}, []string{"d"})},
		Output:     out,
		CacheFiles: []string{"/cache/dim"},
		NewMapper: func() Mapper {
			return &cacheMapper{saw: &sawData}
		},
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if sawData.Load() != 4 {
		t.Errorf("mappers that saw cache data = %d, want 4", sawData.Load())
	}
	// Copied at most once per node, regardless of task count.
	if copies := res.Counters.Get(CtrCacheCopies); copies != 3 {
		t.Errorf("DISTRIBUTED_CACHE_COPIES = %d, want 3", copies)
	}
}

type cacheMapper struct {
	baseMapper
	saw *atomic.Int64
}

func (m *cacheMapper) Map(_, v records.Record, c Collector) error { return nil }
func (m *cacheMapper) Setup(ctx *TaskContext) error {
	data, err := ctx.CacheFile("/cache/dim")
	if err != nil {
		return err
	}
	if string(data) == "dimension-table" {
		m.saw.Add(1)
	}
	return nil
}

func TestShuffleCountersAndByteAccounting(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b", "c"}, []string{"d", "e"})
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrMapOutputBytes) <= 0 {
		t.Error("MAP_OUTPUT_BYTES should be positive")
	}
	if res.Counters.Get(CtrShuffleBytes) != res.Counters.Get(CtrMapOutputBytes) {
		t.Errorf("SHUFFLE_BYTES %d != MAP_OUTPUT_BYTES %d (no combiner, all data shuffles)",
			res.Counters.Get(CtrShuffleBytes), res.Counters.Get(CtrMapOutputBytes))
	}
}

func TestReducerSeesSortedGroups(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"z", "m", "a"}, []string{"m", "z", "a", "k"})
	var mu sync.Mutex
	var order []string
	job := wordCountJob(splits, out, 1)
	job.NewReducer = func() Reducer {
		return ReducerFunc(func(k records.Record, vs Values, c Collector) error {
			mu.Lock()
			order = append(order, k.Get("word").Str())
			mu.Unlock()
			n := int64(0)
			for _, ok := vs.Next(); ok; _, ok = vs.Next() {
				n++
			}
			return c.Collect(k, records.Make(countSchema, records.Int(n)))
		})
	}
	if _, err := e.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "k", "m", "z"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("group order = %v, want %v", order, want)
	}
}

func TestNodeDeathDuringShuffleReexecutesMaps(t *testing.T) {
	e := newTestEngine(3)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a"}, []string{"b"}, []string{"c"})
	job := wordCountJob(splits, out, 1)

	// Kill a node right after the map phase by hooking the reducer's Setup
	// via the failure injector on its first attempt.
	var killed atomic.Bool
	job.FailureInjector = func(taskID string, attempt int) error {
		if strings.HasPrefix(taskID, "r-") && killed.CompareAndSwap(false, true) {
			// Kill a node that likely holds map output. The reduce attempt
			// proceeds; fetch will re-execute lost maps.
			for _, n := range e.Cluster().Nodes() {
				if n.ID() == "node-2" {
					n.Kill()
				}
			}
		}
		return nil
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got := countsFrom(out)
	if got["a"] != 1 || got["b"] != 1 || got["c"] != 1 {
		t.Errorf("counts = %v", got)
	}
	_ = res
}

func TestCountersMergeAndNames(t *testing.T) {
	a := NewCounters()
	a.Add("x", 2)
	b := NewCounters()
	b.Add("x", 3)
	b.Add("y", 1)
	a.Merge(b)
	if a.Get("x") != 5 || a.Get("y") != 1 {
		t.Errorf("merge = %v", a.Snapshot())
	}
	var names []string
	for name := range a.Snapshot() {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
}
