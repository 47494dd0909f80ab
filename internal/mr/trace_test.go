package mr

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// TestTraceStraggler runs a two-node job where one mapper is artificially
// slow and checks the trace shows the straggler: the slow task's lane sits
// under the node that ran it and its map span dominates the timeline.
func TestTraceStraggler(t *testing.T) {
	e := newTestEngine(2)
	sink := obs.NewMemorySink()
	e.SetTracer(obs.NewTracer(sink))
	reg := obs.NewRegistry()
	e.SetMetrics(reg)

	out := &MemoryOutput{}
	splits := wordSplits(nil,
		[]string{"a", "b"},
		[]string{"slowmarker", "b"},
		[]string{"c", "a"},
		[]string{"b", "c"},
	)
	job := wordCountJob(splits, out, 1)
	slowFor := 30 * time.Millisecond
	job.NewMapper = func() Mapper {
		return MapperFunc(func(_, v records.Record, c Collector) error {
			if v.Get("word").Str() == "slowmarker" {
				time.Sleep(slowFor)
			}
			return c.Collect(v, records.Make(countSchema, records.Int(1)))
		})
	}
	res, err := e.Submit(obs.ContextWith(context.Background(), obs.NewTrace()), job)
	if err != nil {
		t.Fatal(err)
	}

	// The straggler is split 1 (task m-1); find where the engine ran it.
	var slowNode string
	var slowPhases map[string]time.Duration
	for _, tr := range res.Tasks {
		if tr.TaskID == "m-1" {
			slowNode = tr.Node
			slowPhases = tr.Phases
		}
	}
	if slowNode == "" {
		t.Fatal("no task report for m-1")
	}
	if slowPhases[obs.PhaseMap] < slowFor {
		t.Errorf("m-1 map phase = %v, want >= %v", slowPhases[obs.PhaseMap], slowFor)
	}

	// The trace must contain a map span for m-1 on that node, longer than
	// every other task's map span.
	spans := sink.Spans()
	var slowSpan obs.Span
	var maxOther time.Duration
	for _, s := range spans {
		if s.Name != obs.PhaseMap {
			continue
		}
		if s.TaskID == "m-1" {
			if s.Node != slowNode {
				t.Errorf("m-1 map span on %s, report says %s", s.Node, slowNode)
			}
			if s.Duration() > slowSpan.Duration() {
				slowSpan = s
			}
		} else if s.Duration() > maxOther {
			maxOther = s.Duration()
		}
	}
	if slowSpan.Name == "" {
		t.Fatal("no map span for m-1 in trace")
	}
	if slowSpan.Duration() < slowFor {
		t.Errorf("m-1 span = %v, want >= %v", slowSpan.Duration(), slowFor)
	}
	if slowSpan.Duration() <= maxOther {
		t.Errorf("straggler span (%v) should exceed every other map span (max %v)",
			slowSpan.Duration(), maxOther)
	}

	// The timeline drawn from the traced run's profile must place the m-1
	// lane under the straggler's node header, with strictly the widest
	// stretch of map ('M') cells — the visual straggler signal. (Lane
	// *duration* includes queue-wait, so a task that waited behind the
	// straggler can match its length.)
	p, err := obs.BuildProfile(spans, obs.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.WriteTimeline(&buf)
	lines := strings.Split(buf.String(), "\n")
	node := ""
	laneMapCells := map[string]int{}
	laneNode := map[string]string{}
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "node-"):
			node = ln
		case strings.HasPrefix(ln, "  m-") || strings.HasPrefix(ln, "  r-"):
			fields := strings.Fields(ln)
			laneNode[fields[0]] = node
			laneMapCells[fields[0]] = strings.Count(ln, "M")
		}
	}
	if got := laneNode["m-1"]; got != slowNode {
		t.Errorf("timeline places m-1 under %q, want %q\n%s", got, slowNode, buf.String())
	}
	for lane, cells := range laneMapCells {
		if lane != "m-1" && cells >= laneMapCells["m-1"] {
			t.Errorf("lane %s (%d map cells) should show less map time than straggler m-1 (%d)\n%s",
				lane, cells, laneMapCells["m-1"], buf.String())
		}
	}

	// Engine metrics were populated.
	if n := reg.Histogram("mr.map.duration_ns").Count(); n != 4 {
		t.Errorf("map duration histogram count = %d, want 4", n)
	}
}

// TestTaskReportPhases checks sub-phase durations reach TaskReport even with
// tracing disabled (phases are measured unconditionally, spans are not).
func TestTaskReportPhases(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b"}, []string{"b", "c"})
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 1))
	if err != nil {
		t.Fatal(err)
	}
	var maps, reduces int
	for _, tr := range res.Tasks {
		if tr.Start.IsZero() {
			t.Errorf("%s: zero start time", tr.TaskID)
		}
		if len(tr.Phases) == 0 {
			t.Errorf("%s: no phases recorded", tr.TaskID)
			continue
		}
		if strings.HasPrefix(tr.TaskID, "m-") {
			maps++
			if _, ok := tr.Phases[obs.PhaseMap]; !ok {
				t.Errorf("%s: missing map phase, got %v", tr.TaskID, tr.Phases)
			}
		} else {
			reduces++
			for _, want := range []string{obs.PhaseShuffle, obs.PhaseSort, obs.PhaseReduce} {
				if _, ok := tr.Phases[want]; !ok {
					t.Errorf("%s: missing %s phase, got %v", tr.TaskID, want, tr.Phases)
				}
			}
		}
	}
	if maps != 2 || reduces != 1 {
		t.Errorf("got %d map and %d reduce reports", maps, reduces)
	}
}

// TestWriteJSON checks the shared job-result serialization.
func TestWriteJSON(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a"}, []string{"b"})
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"job"`, `"counters"`, `"tasks"`, `"phases_ns"`, `"m-0"`, `"r-0"`, "MAP_TASKS_LAUNCHED"} {
		if !strings.Contains(s, want) {
			t.Errorf("WriteJSON output missing %s:\n%s", want, s)
		}
	}
}
