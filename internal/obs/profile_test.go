package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var profBase = time.Unix(1700000000, 0)

func at(ms int) time.Time { return profBase.Add(time.Duration(ms) * time.Millisecond) }

func mkSpan(id, parent, name, job, task, node string, s, e int) Span {
	return Span{
		Trace: "t-prof", SpanID: id, Parent: parent,
		Job: job, Name: name, TaskID: task, Node: node,
		Start: at(s), End: at(e),
	}
}

// profileFixture is one query's worth of spans: a root, a job, two task
// attempts, and within the long task a map span with a read parented under
// it, as the task context emits them, and an hdfs-read parented under the
// read.
func profileFixture() []Span {
	return []Span{
		mkSpan("sq", "", PhaseQuery, "", "", "", 0, 100),
		mkSpan("sj", "sq", PhaseJob, "j1", "", "", 5, 95),
		mkSpan("st0", "sj", PhaseTask, "j1", "m-0", "n1", 10, 50),
		mkSpan("st1", "sj", PhaseTask, "j1", "m-1", "n2", 10, 90),
		mkSpan("sm", "st1", PhaseMap, "j1", "m-1", "n2", 12, 88),
		mkSpan("sr", "sm", PhaseRead, "j1", "m-1", "n2", 14, 40),
		mkSpan("sh", "sr", PhaseHDFSRead, "", "", "n2", 15, 30),
	}
}

func TestBuildProfileTree(t *testing.T) {
	p, err := BuildProfile(profileFixture(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace != "t-prof" || p.Query != PhaseQuery {
		t.Fatalf("trace/query = %q/%q", p.Trace, p.Query)
	}
	if p.Wall != 100*time.Millisecond {
		t.Fatalf("wall = %v, want 100ms", p.Wall)
	}
	if p.Spans != 7 || p.Orphans != 0 {
		t.Fatalf("spans/orphans = %d/%d, want 7/0", p.Spans, p.Orphans)
	}

	// Structure: query → job → {task m-0, task m-1}, and each span under
	// the parent it names: m-1 → map → read → hdfs-read.
	if len(p.Root.Children) != 1 || p.Root.Children[0].Span.Name != PhaseJob {
		t.Fatalf("root children = %+v", p.Root.Children)
	}
	job := p.Root.Children[0]
	if len(job.Children) != 2 {
		t.Fatalf("job has %d children, want 2 tasks", len(job.Children))
	}
	var m1 *ProfileNode
	for _, c := range job.Children {
		if c.Span.TaskID == "m-1" {
			m1 = c
		}
	}
	if m1 == nil || len(m1.Children) != 1 || m1.Children[0].Span.Name != PhaseMap {
		t.Fatalf("m-1 subtree wrong: %+v", m1)
	}
	mp := m1.Children[0]
	if len(mp.Children) != 1 || mp.Children[0].Span.Name != PhaseRead {
		t.Fatalf("map's child should be its read, got %+v", mp.Children)
	}
	rd := mp.Children[0]
	if len(rd.Children) != 1 || rd.Children[0].Span.Name != PhaseHDFSRead {
		t.Fatalf("read's child should be hdfs-read, got %+v", rd.Children)
	}

	// Self = duration − children union: read is 26ms long with a 15ms child.
	if rd.Self != 11*time.Millisecond {
		t.Errorf("read self = %v, want 11ms", rd.Self)
	}
}

func TestBuildProfilePhaseWallsPartitionWall(t *testing.T) {
	p, err := BuildProfile(profileFixture(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PhaseWallTotal(); got != p.Wall {
		t.Fatalf("phase walls sum to %v, want exactly wall %v", got, p.Wall)
	}
	// Deepest-covering attribution: hdfs-read owns exactly its own 15ms;
	// the root query owns only the 10ms no other span covers.
	if got := p.phase(PhaseHDFSRead).Wall; got != 15*time.Millisecond {
		t.Errorf("hdfs-read wall = %v, want 15ms", got)
	}
	if got := p.phase(PhaseQuery).Wall; got != 10*time.Millisecond {
		t.Errorf("query wall = %v, want 10ms", got)
	}
	// Busy sums self times; per-phase self can never exceed span count ×
	// wall, and for the single-span read phase equals its self.
	if got := p.phase(PhaseRead).Busy; got != 11*time.Millisecond {
		t.Errorf("read busy = %v, want 11ms", got)
	}
}

func TestBuildProfileOrphans(t *testing.T) {
	spans := append(profileFixture(),
		mkSpan("slost", "missing-parent", PhaseSpill, "j1", "m-9", "n3", 20, 25))
	p, err := BuildProfile(spans, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", p.Orphans)
	}
	// The orphan is re-attached under the root so its time stays accounted.
	if got := p.phase(PhaseSpill).Count; got != 1 {
		t.Errorf("orphan phase not reachable, count = %d", got)
	}
	if got := p.PhaseWallTotal(); got != p.Wall {
		t.Errorf("walls no longer partition: %v != %v", got, p.Wall)
	}
}

// TestBuildProfileNestsByParentOnly: a span whose interval lies inside a
// sibling's stays where its Parent puts it. Here a combine that (on a
// coarse clock) falls within the map's interval is the task's child, not
// the map's.
func TestBuildProfileNestsByParentOnly(t *testing.T) {
	spans := append(profileFixture(),
		mkSpan("sc", "st1", PhaseCombine, "j1", "m-1", "n2", 50, 60))
	p, err := BuildProfile(spans, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var parents []string
	var walk func(n *ProfileNode)
	walk = func(n *ProfileNode) {
		for _, c := range n.Children {
			if c.Span.Name == PhaseCombine {
				parents = append(parents, n.Span.SpanID)
			}
			walk(c)
		}
	}
	walk(p.Root)
	if len(parents) != 1 || parents[0] != "st1" {
		t.Fatalf("combine nests under %v, want only its named parent st1", parents)
	}
	if got := p.PhaseWallTotal(); got != p.Wall {
		t.Errorf("phase walls sum to %v, want exactly wall %v", got, p.Wall)
	}
}

// TestBuildProfileExtraRootIsOneOrphan: a second parentless span is one
// orphan, attached under the root once.
func TestBuildProfileExtraRootIsOneOrphan(t *testing.T) {
	spans := append(profileFixture(), mkSpan("sx", "", PhaseDimCache, "", "", "", 1, 4))
	p, err := BuildProfile(spans, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Span.SpanID != "sq" {
		t.Fatalf("root = %s, want the query span", p.Root.Span.SpanID)
	}
	if p.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", p.Orphans)
	}
	if got := p.phase(PhaseDimCache).Count; got != 1 {
		t.Errorf("extra root attached %d times, want once", got)
	}
}

func TestBuildProfileCriticalPath(t *testing.T) {
	p, err := BuildProfile(profileFixture(), ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{PhaseJob, PhaseTask, PhaseMap, PhaseRead, PhaseHDFSRead}
	if len(p.CriticalPath) != len(want) {
		t.Fatalf("critical path %+v, want names %v", p.CriticalPath, want)
	}
	for i, st := range p.CriticalPath {
		if st.Name != want[i] {
			t.Errorf("critical path[%d] = %q, want %q", i, st.Name, want[i])
		}
	}
	if p.CriticalPath[1].TaskID != "m-1" {
		t.Errorf("critical path task = %q, want the long attempt m-1", p.CriticalPath[1].TaskID)
	}
}

func TestBuildProfileStragglers(t *testing.T) {
	spans := []Span{
		mkSpan("sq", "", PhaseQuery, "", "", "", 0, 100),
		mkSpan("sj", "sq", PhaseJob, "j1", "", "", 0, 100),
	}
	// Three quick tasks and one 5× outlier whose time sits in its read.
	for i, e := range []int{20, 21, 22} {
		id := string(rune('a' + i))
		spans = append(spans, mkSpan("st"+id, "sj", PhaseTask, "j1", "m-"+id, "n1", 10, 10+e))
	}
	spans = append(spans,
		mkSpan("stx", "sj", PhaseTask, "j1", "m-x", "n2", 10, 110),
		mkSpan("smx", "stx", PhaseMap, "j1", "m-x", "n2", 11, 109),
		mkSpan("srx", "smx", PhaseRead, "j1", "m-x", "n2", 12, 105),
	)
	p, err := BuildProfile(spans, ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v, want exactly the outlier", p.Stragglers)
	}
	s := p.Stragglers[0]
	if s.TaskID != "m-x" || s.Node != "n2" {
		t.Errorf("flagged %s on %s, want m-x on n2", s.TaskID, s.Node)
	}
	if s.Factor < 4 {
		t.Errorf("factor = %.1f, want ≈5", s.Factor)
	}
	if s.Phase != PhaseRead {
		t.Errorf("straggler phase = %q, want read (where its time sits)", s.Phase)
	}
}

func TestProfileRenderers(t *testing.T) {
	p, err := BuildProfile(profileFixture(), ProfileOptions{
		Counters: map[string]int64{"scan.rows_pruned": 1234, "scan.rows_bloom_skipped": 5, "scan.blocks_skipped": 7, "a.counter": 1,
			"REMOTE_MAPS_DELAYED": 1, "REMOTE_MAPS_NO_HOLDER": 2, "DATA_LOCAL_MAPS": 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	p.WriteText(&txt)
	// The scan's accounting leads the counter list, blocks_skipped with it,
	// then where the map attempts ran and why not on their input; everything
	// else follows by name.
	order := []string{"scan.rows_pruned", "scan.rows_bloom_skipped", "scan.blocks_skipped",
		"DATA_LOCAL_MAPS", "REMOTE_MAPS_NO_HOLDER", "REMOTE_MAPS_DELAYED", "a.counter"}
	for i := 1; i < len(order); i++ {
		if a, b := strings.Index(txt.String(), order[i-1]), strings.Index(txt.String(), order[i]); a < 0 || b < a {
			t.Errorf("text report lists %s before %s, or not at all:\n%s", order[i], order[i-1], txt.String())
		}
	}
	for _, want := range []string{"EXPLAIN ANALYZE", "phase attribution", "scan.rows_pruned", "critical path", "hdfs-read"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace": "t-prof"`, `"phases"`, `"critical_path"`, `"wall_ns": 100000000`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json report missing %q", want)
		}
	}
}

func TestBuildProfileSyntheticRoot(t *testing.T) {
	// A trace whose root span was lost (collector cap) still assembles,
	// under a synthesized root covering every span.
	spans := profileFixture()[1:]
	for i := range spans {
		if spans[i].SpanID == "sj" {
			spans[i].Parent = "sq-lost"
		}
	}
	p, err := BuildProfile(spans, ProfileOptions{Trace: "t-prof"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Wall != 90*time.Millisecond {
		t.Errorf("synthetic root wall = %v, want 90ms (5..95)", p.Wall)
	}
	if got := p.PhaseWallTotal(); got != p.Wall {
		t.Errorf("walls don't partition synthetic root: %v != %v", got, p.Wall)
	}
}

// phase returns the named phase's stat, or a zero stat.
func (p *Profile) phase(name string) PhaseStat {
	for _, st := range p.Phases {
		if st.Name == name {
			return st
		}
	}
	return PhaseStat{Name: name}
}
