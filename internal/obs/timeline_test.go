package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// syntheticJob builds a deterministic two-node trace: node-0 runs two quick
// map tasks and the reduce, node-1 runs one straggling map task.
func syntheticJob() []Span {
	base := time.Unix(0, 0).UTC()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(name, node, task string, fromMs, toMs int) Span {
		return Span{Job: "job-1", Name: name, Node: node, TaskID: task, Start: at(fromMs), End: at(toMs)}
	}
	return []Span{
		mk(PhaseJVMStart, "node-0", "m-0", 0, 5),
		mk(PhaseMap, "node-0", "m-0", 5, 40),
		mk(PhaseRead, "node-0", "m-0", 5, 15),
		mk(PhaseSpill, "node-0", "m-0", 38, 40),
		mk(PhaseQueueWait, "node-0", "m-1", 0, 40),
		mk(PhaseMap, "node-0", "m-1", 40, 70),
		mk(PhaseRead, "node-0", "m-1", 40, 45),
		mk(PhaseShuffle, "node-0", "r-0", 70, 80),
		mk(PhaseSort, "node-0", "r-0", 80, 85),
		mk(PhaseReduce, "node-0", "r-0", 85, 100),
		mk(PhaseQueueWait, "node-1", "m-2", 0, 10),
		mk(PhaseMap, "node-1", "m-2", 10, 95),
		mk(PhaseRead, "node-1", "m-2", 10, 20),
		// A span from another job must be filtered out.
		{Job: "job-2", Name: PhaseMap, Node: "node-0", TaskID: "m-9", Start: at(0), End: at(100)},
	}
}

// TestRenderTimelineGolden pins the exact rendering: lane order, glyph
// overlay (finer phases over coarse), durations and legend. The straggler
// m-2 must appear under node-1 with the longest bar.
func TestRenderTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	spans := syntheticJob()
	// Shuffle-insensitive: the renderer sorts lanes and spans itself; feed
	// the spans reversed to prove it.
	rev := make([]Span, 0, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		rev = append(rev, spans[i])
	}
	RenderTimeline(&buf, rev, TimelineOptions{Job: "job-1"})

	want := strings.Join([]string{
		"timeline: 4 lanes over 100ms",
		"node-0",
		"  m-0      |JJJrrrrrrrMMMMMMMMMMMMMMWW......................................| 40ms",
		"  m-1      |qqqqqqqqqqqqqqqqqqqqqqqqqrrrrMMMMMMMMMMMMMMMM...................| 70ms",
		"  r-0      |............................................SSSSSSSOOOORRRRRRRRR| 30ms",
		"node-1",
		"  m-2      |qqqqqqrrrrrrrMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM...| 95ms",
		"legend: q=queue-wait J=jvm-start r=read M=map W=spill S=shuffle O=sort R=reduce",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("timeline mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, []Span{{Name: PhaseHDFSRead}}, TimelineOptions{})
	if !strings.Contains(buf.String(), "no task spans") {
		t.Errorf("got %q", buf.String())
	}
}

func TestWritePhaseSummary(t *testing.T) {
	var buf bytes.Buffer
	WritePhaseSummary(&buf, map[string]time.Duration{
		PhaseMap:  30 * time.Millisecond,
		PhaseRead: 5 * time.Millisecond,
	})
	out := buf.String()
	mapIdx := strings.Index(out, PhaseMap)
	readIdx := strings.Index(out, PhaseRead)
	if mapIdx < 0 || readIdx < 0 || mapIdx > readIdx {
		t.Errorf("summary should list map (larger) before read:\n%s", out)
	}
}
