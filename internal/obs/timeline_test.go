package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// syntheticJob builds a deterministic two-node trace, each span naming its
// parent (query → job → task → phase, read under map): node-0 runs two
// quick map tasks and the reduce, node-1 runs one straggling map task.
func syntheticJob() []Span {
	base := time.Unix(0, 0).UTC()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(id, parent, name, node, task string, fromMs, toMs int) Span {
		return Span{Trace: "t1", SpanID: id, Parent: parent, Job: "job-1", Name: name,
			Node: node, TaskID: task, Start: at(fromMs), End: at(toMs)}
	}
	return []Span{
		mk("q", "", PhaseQuery, "", "", 0, 100),
		mk("j", "q", PhaseJob, "", "", 0, 100),
		mk("t0", "j", PhaseTask, "node-0", "m-0", 0, 40),
		mk("t0.1", "t0", PhaseJVMStart, "node-0", "m-0", 0, 5),
		mk("t0.2", "t0", PhaseMap, "node-0", "m-0", 5, 40),
		mk("t0.3", "t0.2", PhaseRead, "node-0", "m-0", 5, 15),
		// A raw HDFS read carries no TaskID: it draws nothing in the lane.
		mk("t0.4", "t0.3", PhaseHDFSRead, "node-0", "", 5, 40),
		mk("t0.5", "t0", PhaseSpill, "node-0", "m-0", 38, 40),
		mk("t1", "j", PhaseTask, "node-0", "m-1", 0, 70),
		mk("t1.1", "t1", PhaseQueueWait, "node-0", "m-1", 0, 40),
		mk("t1.2", "t1", PhaseMap, "node-0", "m-1", 40, 70),
		mk("t1.3", "t1.2", PhaseRead, "node-0", "m-1", 40, 45),
		mk("t2", "j", PhaseTask, "node-0", "r-0", 70, 100),
		mk("t2.1", "t2", PhaseShuffle, "node-0", "r-0", 70, 80),
		mk("t2.2", "t2", PhaseSort, "node-0", "r-0", 80, 85),
		mk("t2.3", "t2", PhaseReduce, "node-0", "r-0", 85, 100),
		mk("t3", "j", PhaseTask, "node-1", "m-2", 0, 95),
		mk("t3.1", "t3", PhaseQueueWait, "node-1", "m-2", 0, 10),
		mk("t3.2", "t3", PhaseMap, "node-1", "m-2", 10, 95),
		mk("t3.3", "t3.2", PhaseRead, "node-1", "m-2", 10, 20),
	}
}

// TestWriteTimelineGolden pins the exact rendering: lane order, the
// deepest phase in each cell, durations and legend. The straggler m-2 must
// appear under node-1 with the longest bar.
func TestWriteTimelineGolden(t *testing.T) {
	spans := syntheticJob()
	// Order-insensitive: the profile sorts the tree itself; feed the spans
	// reversed to prove it.
	rev := make([]Span, 0, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		rev = append(rev, spans[i])
	}
	p, err := BuildProfile(rev, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.WriteTimeline(&buf)

	want := strings.Join([]string{
		"timeline: 4 lanes over 100ms",
		"node-0",
		"  m-0      |JJJrrrrrrrMMMMMMMMMMMMMMWW......................................| 40ms",
		"  m-1      |qqqqqqqqqqqqqqqqqqqqqqqqqrrrrMMMMMMMMMMMMMMMM...................| 70ms",
		"  r-0      |............................................SSSSSSSOOORRRRRRRRRR| 30ms",
		"node-1",
		"  m-2      |qqqqqqrrrrrrrMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM...| 95ms",
		"legend: q=queue-wait J=jvm-start r=read M=map W=spill S=shuffle O=sort R=reduce",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("timeline mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	p, err := BuildProfile([]Span{
		{Trace: "t1", SpanID: "q", Name: PhaseQuery},
		{Trace: "t1", SpanID: "h", Parent: "q", Name: PhaseHDFSRead},
	}, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.WriteTimeline(&buf)
	if !strings.Contains(buf.String(), "no task spans") {
		t.Errorf("got %q", buf.String())
	}
}
