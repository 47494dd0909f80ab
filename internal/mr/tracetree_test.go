package mr

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clydesdale/internal/obs"
)

// TestTraceTreeComplete checks the tentpole correlation invariant at the mr
// layer: a job submitted under a trace context yields one connected span
// tree — every span carries the caller's trace ID, the job span is parented
// on the caller, every task attempt is parented on the job, and every
// finer-grained phase span is reachable from a task. Nothing is orphaned
// and nothing leaks into another trace.
func TestTraceTreeComplete(t *testing.T) {
	e := newTestEngine(2)
	col := obs.NewTraceCollector(0, 0)
	e.SetTracer(obs.NewTracer(col))

	root := obs.NewTrace()
	ctx := obs.ContextWith(context.Background(), root)

	out := &MemoryOutput{}
	job := wordCountJob(wordSplits(nil,
		[]string{"a", "b"},
		[]string{"c", "a"},
		[]string{"b", "c"},
	), out, 2)
	if _, err := e.Submit(ctx, job); err != nil {
		t.Fatal(err)
	}

	spans, dropped := col.Take(root.Trace)
	if dropped != 0 {
		t.Fatalf("collector dropped %d spans", dropped)
	}
	if len(spans) == 0 {
		t.Fatal("no spans collected for the trace")
	}

	byID := make(map[string]obs.Span, len(spans))
	var jobSpan obs.Span
	jobs := 0
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Fatalf("span %s/%s has trace %q, want %q", s.Name, s.SpanID, s.Trace, root.Trace)
		}
		if s.SpanID == "" {
			t.Fatalf("span %s has no span ID", s.Name)
		}
		if _, dup := byID[s.SpanID]; dup {
			t.Fatalf("duplicate span ID %s", s.SpanID)
		}
		byID[s.SpanID] = s
		if s.Name == obs.PhaseJob {
			jobSpan = s
			jobs++
		}
	}
	if jobs != 1 {
		t.Fatalf("got %d job spans, want 1", jobs)
	}
	if jobSpan.Parent != root.Span {
		t.Errorf("job span parent = %q, want the caller's span %q", jobSpan.Parent, root.Span)
	}

	tasks := 0
	for _, s := range spans {
		switch s.Name {
		case obs.PhaseJob:
			continue
		case obs.PhaseTask:
			tasks++
			if s.Parent != jobSpan.SpanID {
				t.Errorf("task %s parent = %q, want job span %q", s.TaskID, s.Parent, jobSpan.SpanID)
			}
			if s.TaskID == "" || s.Node == "" {
				t.Errorf("task span missing identity: taskID=%q node=%q", s.TaskID, s.Node)
			}
			continue
		}
		// Phase spans must hang off a task: walking Parent links reaches a
		// task span before falling off the map.
		cur, hops := s, 0
		for {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Errorf("span %s (%s) parent chain breaks at %q", s.Name, s.SpanID, cur.Parent)
				break
			}
			if p.Name == obs.PhaseTask {
				break
			}
			cur = p
			if hops++; hops > 16 {
				t.Errorf("span %s parent chain does not reach a task", s.Name)
				break
			}
		}
	}
	// 3 maps + 2 reduces, each exactly one winning attempt here.
	if tasks < 5 {
		t.Errorf("got %d task spans, want >= 5 (3 maps + 2 reduces)", tasks)
	}

	// The same spans must assemble into an orphan-free profile whose phase
	// walls partition the wall clock exactly.
	p := checkProfile(t, root, spans)
	if !strings.HasPrefix(p.Trace, "t") {
		t.Errorf("profile trace %q not a trace ID", p.Trace)
	}
}

// checkProfile assembles a job's spans under a query span at root covering
// the job, and requires the profile to have no orphans and phase walls that
// partition its wall exactly.
func checkProfile(t *testing.T, root obs.SpanContext, spans []obs.Span) *obs.Profile {
	t.Helper()
	qs := obs.Span{Name: obs.PhaseQuery}
	for _, s := range spans {
		if s.Name == obs.PhaseJob {
			qs.Start, qs.End = s.Start, s.End
		}
	}
	root.Fill(&qs, "")
	p, err := obs.BuildProfile(append(spans, qs), obs.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Orphans != 0 {
		t.Errorf("profile has %d orphans", p.Orphans)
	}
	if got, want := p.PhaseWallTotal(), p.Wall; got != want {
		t.Errorf("phase walls sum to %v, want exactly the wall %v", got, want)
	}
	return p
}

// setupMapper is a Mapper whose Setup calls a hook first.
type setupMapper struct {
	Mapper
	hook func(*TaskContext)
}

func (m setupMapper) Setup(ctx *TaskContext) error {
	m.hook(ctx)
	return m.Mapper.Setup(ctx)
}

// TestReexecutedMapsNestUnderShuffle: a node holding map output dies
// before the reduce fetches, the reduce re-executes the lost maps, and each
// re-executed map's task span is a child of the shuffle that paid for it.
func TestReexecutedMapsNestUnderShuffle(t *testing.T) {
	e := newTestEngine(3)
	col := obs.NewTraceCollector(0, 0)
	e.SetTracer(obs.NewTracer(col))
	root := obs.NewTrace()

	job := wordCountJob(wordSplits(nil, []string{"a"}, []string{"b"}, []string{"c"}), &MemoryOutput{}, 1)
	var mu sync.Mutex
	var mapNode string
	newMapper := job.NewMapper
	job.NewMapper = func() Mapper {
		return setupMapper{newMapper(), func(ctx *TaskContext) {
			mu.Lock()
			if mapNode == "" {
				mapNode = ctx.Node().ID()
			}
			mu.Unlock()
		}}
	}
	var killed atomic.Bool
	job.FailureInjector = func(taskID string, _ int) error {
		if strings.HasPrefix(taskID, "r-") && killed.CompareAndSwap(false, true) {
			mu.Lock()
			e.Cluster().Node(mapNode).Kill()
			mu.Unlock()
		}
		return nil
	}
	res, err := e.Submit(obs.ContextWith(context.Background(), root), job)
	if err != nil {
		t.Fatal(err)
	}
	reexecuted := res.Counters.Get(CtrMapsReExecuted)
	if reexecuted == 0 {
		t.Fatal("no map was re-executed for the shuffle")
	}

	spans, _ := col.Take(root.Trace)
	byID := make(map[string]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	var underShuffle int64
	for _, s := range spans {
		if s.Name != obs.PhaseTask || !strings.HasPrefix(s.TaskID, "m-") {
			continue
		}
		switch byID[s.Parent].Name {
		case obs.PhaseShuffle:
			underShuffle++
		case obs.PhaseJob:
		default:
			t.Errorf("map task span %s nests under %q, want the job or a shuffle", s.TaskID, byID[s.Parent].Name)
		}
	}
	if underShuffle != reexecuted {
		t.Errorf("%d map task spans under a shuffle, want one per re-execution (%d)", underShuffle, reexecuted)
	}
	checkProfile(t, root, spans)
}
