package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Profile is one query's assembled span tree plus the derived EXPLAIN
// ANALYZE accounting: where the query's wall time went phase by phase, which
// tasks straggled, and what the critical path was. It is built from the
// correlated spans of a single trace (BuildProfile) and rendered as text
// (WriteText, the `clydesdale -explain` report) or JSON (WriteJSON, the
// `benchssb -profile-json` / debug-server shape).
type Profile struct {
	// Trace is the trace ID the profile was assembled from.
	Trace string
	// Query is the root span's query attribute (or its name as a fallback).
	Query string
	// Read is the root span's read attribute: the table versions the query
	// was answered from ("lineorder@7 customer@3"), empty when unrecorded.
	Read string
	// Plan is the root span's plan attribute: what ran, as the executor
	// reports it ("staged passes=2"); empty when no job ran.
	Plan string
	// ResultCache is the root span's result_cache attribute: what a serving
	// session's result cache did for the query ("hit", "subsumed", "miss"
	// or "off"); empty outside a session.
	ResultCache string
	// Start/End/Wall cover the root span.
	Start time.Time
	End   time.Time
	Wall  time.Duration
	// Root is the span tree. Children nest by Parent ID alone: every span
	// names its parent when it is emitted, down to a task's phases (read
	// inside probe inside map) and the hdfs-read spans of each read.
	Root *ProfileNode
	// Phases is the per-phase accounting, sorted by attributed wall
	// descending. The Wall columns partition the root's wall time exactly:
	// every instant of the query's life is attributed to the deepest span
	// covering it, so sum(Phases[i].Wall) == Wall.
	Phases []PhaseStat
	// Stragglers lists task attempts that ran k× slower than their phase's
	// median, with the phase the extra time sits in.
	Stragglers []Straggler
	// CriticalPath is the root-to-leaf chain of latest-finishing spans: the
	// work that actually bounded the query's completion time.
	CriticalPath []CriticalStep
	// Spans is how many spans the tree holds; Orphans how many arrived with
	// a Parent that resolved to no span (they are re-attached under the
	// root so no time is lost, but a correct trace has zero). Dropped is
	// how many spans the collector discarded to its per-trace cap.
	Spans   int
	Orphans int
	Dropped int64
	// Counters carries the job counters the caller attached (rows pruned,
	// late-materialization skips, cache hits, failovers, ...).
	Counters map[string]int64
}

// ProfileNode is one span and its children in the assembled tree.
type ProfileNode struct {
	Span     Span
	Children []*ProfileNode
	// Self is the span's duration minus the union of its children's
	// intervals: time spent in this span itself rather than anything finer.
	Self time.Duration

	depth int
}

// PhaseStat aggregates one phase name across the tree.
type PhaseStat struct {
	Name string
	// Wall is the exclusive wall time attributed to the phase: the length
	// of the root intervals whose deepest covering span has this name.
	// Phase walls sum exactly to the profile's Wall.
	Wall time.Duration
	// Busy sums the self times of the phase's spans. Under parallelism
	// (many tasks at once) Busy exceeds Wall; their ratio is the phase's
	// effective parallelism.
	Busy  time.Duration
	Count int
}

// Straggler flags one task attempt much slower than its peers.
type Straggler struct {
	Job      string
	TaskID   string
	Node     string
	Duration time.Duration
	// Median is the median duration of the task's peer group (same job,
	// same kind); Factor is Duration/Median.
	Median time.Duration
	Factor float64
	// Phase is where the straggler's time concentrated (its subtree's
	// busiest phase) — the phase the added wall time is attributed to.
	Phase string
}

// CriticalStep is one hop of the critical path.
type CriticalStep struct {
	Name     string
	Job      string
	TaskID   string
	Node     string
	Duration time.Duration
}

// ProfileOptions configures BuildProfile.
type ProfileOptions struct {
	// Trace selects the trace to assemble; empty auto-detects the root
	// span's trace (valid when the spans hold exactly one trace, e.g. a
	// MemorySink reset per query).
	Trace string
	// Counters attaches job counters to the profile (shown in the report).
	Counters map[string]int64
	// Dropped records spans the collector discarded (surfaced, not fatal).
	Dropped int64
}

// BuildProfile assembles one query's spans into a Profile. Spans of other
// traces are ignored; spans whose Parent does not resolve are counted as
// orphans and attached under the root.
func BuildProfile(spans []Span, opts ProfileOptions) (*Profile, error) {
	trace := opts.Trace
	if trace == "" {
		trace = detectTrace(spans)
		if trace == "" {
			return nil, fmt.Errorf("obs: no traced spans to profile")
		}
	}

	// Index the trace's spans. Spans without IDs (emitted outside tracing)
	// cannot participate in a tree and are skipped.
	nodes := make(map[string]*ProfileNode)
	var all []*ProfileNode
	for _, s := range spans {
		if s.Trace != trace || s.SpanID == "" {
			continue
		}
		n := &ProfileNode{Span: s}
		nodes[s.SpanID] = n
		all = append(all, n)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("obs: trace %s has no spans", trace)
	}

	// Choose the root: a parentless span, preferring the "query" span, then
	// the earliest start. Extra parentless spans count as orphans.
	var root *ProfileNode
	for _, n := range all {
		if n.Span.Parent != "" {
			continue
		}
		if root == nil || better(&n.Span, &root.Span) {
			root = n
		}
	}
	if root == nil {
		// Degenerate trace (root span lost): synthesize one covering
		// everything so the tree is still complete.
		root = &ProfileNode{Span: Span{Trace: trace, SpanID: "synthetic-root", Name: PhaseQuery}}
		for _, n := range all {
			if root.Span.Start.IsZero() || n.Span.Start.Before(root.Span.Start) {
				root.Span.Start = n.Span.Start
			}
			if n.Span.End.After(root.Span.End) {
				root.Span.End = n.Span.End
			}
		}
		nodes[root.Span.SpanID] = root
		all = append(all, root)
	}

	// Parentless spans other than the root are orphans too: they claimed
	// to be roots.
	orphans := 0
	for _, n := range all {
		if n == root {
			continue
		}
		parent := nodes[n.Span.Parent]
		if parent == nil || parent == n {
			orphans++
			parent = root
		}
		parent.Children = append(parent.Children, n)
	}

	setDepth(root, 0)
	computeSelf(root)

	p := &Profile{
		Trace:       trace,
		Query:       rootQueryName(root),
		Read:        root.Span.Attrs["read"],
		Plan:        root.Span.Attrs["plan"],
		ResultCache: root.Span.Attrs["result_cache"],
		Start:       root.Span.Start,
		End:         root.Span.End,
		Wall:        root.Span.Duration(),
		Root:        root,
		Spans:       len(all),
		Orphans:     orphans,
		Dropped:     opts.Dropped,
		Counters:    opts.Counters,
	}
	p.Phases = attributePhases(root)
	p.Stragglers = findStragglers(root)
	p.CriticalPath = criticalPath(root)
	return p, nil
}

// detectTrace picks the trace of the best parentless span among the given
// spans, in the order BuildProfile chooses its root, else of any traced
// span (used when the caller knows its sink holds one query's spans).
func detectTrace(spans []Span) string {
	var best *Span
	trace := ""
	for i := range spans {
		s := &spans[i]
		if s.Trace == "" {
			continue
		}
		if trace == "" {
			trace = s.Trace
		}
		if s.Parent == "" && (best == nil || better(s, best)) {
			best = s
		}
	}
	if best != nil {
		return best.Trace
	}
	return trace
}

// better orders root candidates: prefer the query span, then earlier start,
// then span ID for determinism.
func better(a, b *Span) bool {
	aq, bq := a.Name == PhaseQuery, b.Name == PhaseQuery
	if aq != bq {
		return aq
	}
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.SpanID < b.SpanID
}

func rootQueryName(root *ProfileNode) string {
	if q := root.Span.Attrs["query"]; q != "" {
		return q
	}
	return root.Span.Name
}

// setDepth records each node's depth and orders its children by start,
// then name and ID for determinism.
func setDepth(n *ProfileNode, d int) {
	n.depth = d
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if !a.Span.Start.Equal(b.Span.Start) {
			return a.Span.Start.Before(b.Span.Start)
		}
		if a.Span.Name != b.Span.Name {
			return a.Span.Name < b.Span.Name
		}
		return a.Span.SpanID < b.Span.SpanID
	})
	for _, c := range n.Children {
		setDepth(c, d+1)
	}
}

// computeSelf sets each node's Self: duration minus the union of its
// children's intervals clipped to its own.
func computeSelf(n *ProfileNode) {
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		computeSelf(c)
		s, e := c.Span.Start, c.Span.End
		if s.Before(n.Span.Start) {
			s = n.Span.Start
		}
		if e.After(n.Span.End) {
			e = n.Span.End
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var covered time.Duration
	var curS, curE time.Time
	for i, v := range ivs {
		if i == 0 || v.s.After(curE) {
			covered += curE.Sub(curS)
			curS, curE = v.s, v.e
			continue
		}
		if v.e.After(curE) {
			curE = v.e
		}
	}
	covered += curE.Sub(curS)
	n.Self = n.Span.Duration() - covered
	if n.Self < 0 {
		n.Self = 0
	}
}

// attributePhases partitions the root's wall time across phase names: each
// elementary interval of the root's lifetime is attributed to the deepest
// span covering it (ties to the later-starting, then shorter span). The
// resulting walls sum exactly to the root's duration — the invariant the
// `-explain-check` smoke test asserts.
func attributePhases(root *ProfileNode) []PhaseStat {
	var flat []*ProfileNode
	var collect func(*ProfileNode)
	collect = func(n *ProfileNode) {
		flat = append(flat, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(root)

	stats := make(map[string]*PhaseStat)
	stat := func(name string) *PhaseStat {
		st, ok := stats[name]
		if !ok {
			st = &PhaseStat{Name: name}
			stats[name] = st
		}
		return st
	}
	for _, n := range flat {
		st := stat(n.Span.Name)
		st.Busy += n.Self
		st.Count++
	}

	// Boundary sweep over the root interval.
	t0, t1 := root.Span.Start, root.Span.End
	type event struct {
		at    time.Time
		node  *ProfileNode
		start bool
	}
	var events []event
	cuts := map[int64]time.Time{}
	for _, n := range flat {
		s, e := n.Span.Start, n.Span.End
		if s.Before(t0) {
			s = t0
		}
		if e.After(t1) {
			e = t1
		}
		if !e.After(s) {
			continue
		}
		events = append(events, event{s, n, true}, event{e, n, false})
		cuts[s.UnixNano()] = s
		cuts[e.UnixNano()] = e
	}
	bounds := make([]time.Time, 0, len(cuts))
	for _, t := range cuts {
		bounds = append(bounds, t)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].Before(bounds[j]) })
	sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })

	active := make(map[*ProfileNode]bool)
	ei := 0
	for bi := 0; bi+1 < len(bounds); bi++ {
		segS, segE := bounds[bi], bounds[bi+1]
		for ei < len(events) && !events[ei].at.After(segS) {
			if events[ei].start {
				active[events[ei].node] = true
			} else {
				delete(active, events[ei].node)
			}
			ei++
		}
		var best *ProfileNode
		for n := range active {
			if best == nil || deeper(n, best) {
				best = n
			}
		}
		if best != nil {
			stat(best.Span.Name).Wall += segE.Sub(segS)
		}
	}

	out := make([]PhaseStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// deeper orders covering spans for attribution: deepest wins, then the
// later-starting, then the shorter, then name/ID for determinism.
func deeper(a, b *ProfileNode) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if !a.Span.Start.Equal(b.Span.Start) {
		return a.Span.Start.After(b.Span.Start)
	}
	if a.Span.Duration() != b.Span.Duration() {
		return a.Span.Duration() < b.Span.Duration()
	}
	if a.Span.Name != b.Span.Name {
		return a.Span.Name < b.Span.Name
	}
	return a.Span.SpanID < b.Span.SpanID
}

// stragglerFactor is the flagging threshold: a task attempt is a straggler
// when its duration is at least this many times its peer group's median.
const stragglerFactor = 2

// findStragglers flags task attempts ≥ stragglerFactor× their peer-group
// median. Groups are (job, task kind): all map attempts of a job compare
// against each other, reduces likewise. Groups smaller than 3 are skipped —
// a median of two is noise.
func findStragglers(root *ProfileNode) []Straggler {
	groups := make(map[string][]*ProfileNode)
	var walk func(*ProfileNode)
	walk = func(n *ProfileNode) {
		if n.Span.Name == PhaseTask && n.Span.TaskID != "" {
			kind := n.Span.TaskID
			if i := strings.IndexByte(kind, '-'); i > 0 {
				kind = kind[:i]
			}
			key := n.Span.Job + "\x00" + kind
			groups[key] = append(groups[key], n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)

	var out []Straggler
	for _, g := range groups {
		if len(g) < 3 {
			continue
		}
		durs := make([]time.Duration, len(g))
		for i, n := range g {
			durs[i] = n.Span.Duration()
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		if median <= 0 {
			continue
		}
		for _, n := range g {
			f := float64(n.Span.Duration()) / float64(median)
			if f < stragglerFactor {
				continue
			}
			out = append(out, Straggler{
				Job:      n.Span.Job,
				TaskID:   n.Span.TaskID,
				Node:     n.Span.Node,
				Duration: n.Span.Duration(),
				Median:   median,
				Factor:   f,
				Phase:    busiestPhase(n),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Factor != out[j].Factor {
			return out[i].Factor > out[j].Factor
		}
		if out[i].Job != out[j].Job {
			return out[i].Job < out[j].Job
		}
		return out[i].TaskID < out[j].TaskID
	})
	return out
}

// busiestPhase returns the phase with the largest summed self time in the
// task's subtree (excluding the task span itself): where the attempt's
// time actually sat.
func busiestPhase(task *ProfileNode) string {
	busy := make(map[string]time.Duration)
	var walk func(*ProfileNode)
	walk = func(n *ProfileNode) {
		if n != task {
			busy[n.Span.Name] += n.Self
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(task)
	best, bestD := "", time.Duration(-1)
	for name, d := range busy {
		if d > bestD || (d == bestD && name < best) {
			best, bestD = name, d
		}
	}
	return best
}

// criticalPath walks from the root into the latest-finishing child at each
// level: the chain of spans that bounded completion.
func criticalPath(root *ProfileNode) []CriticalStep {
	var out []CriticalStep
	cur := root
	for len(out) < 32 {
		var next *ProfileNode
		for _, c := range cur.Children {
			if next == nil || c.Span.End.After(next.Span.End) ||
				(c.Span.End.Equal(next.Span.End) && c.Span.Duration() > next.Span.Duration()) {
				next = c
			}
		}
		if next == nil {
			break
		}
		out = append(out, CriticalStep{
			Name:     next.Span.Name,
			Job:      next.Span.Job,
			TaskID:   next.Span.TaskID,
			Node:     next.Span.Node,
			Duration: next.Span.Duration(),
		})
		cur = next
	}
	return out
}

// PhaseWallTotal sums the attributed phase walls; by construction it equals
// Wall (the `make profile-smoke` invariant).
func (p *Profile) PhaseWallTotal() time.Duration {
	var sum time.Duration
	for _, st := range p.Phases {
		sum += st.Wall
	}
	return sum
}

// reportCounters lists the counters the report surfaces first, the
// accounting the scan/probe/serve layers maintain. The map-placement block
// goes by the job counters' own names (mr/counters.go): attempts, how many
// ran on their input, and the two causes of the rest.
var reportCounters = []string{
	"scan.partitions_pruned",
	"scan.rows_pruned",
	"scan.bytes_skipped",
	"scan.rows_late_skipped",
	"scan.rows_bloom_skipped",
	"scan.blocks_skipped",
	"core.probe_rows",
	"core.probe_emits",
	"MAP_TASKS_LAUNCHED",
	"DATA_LOCAL_MAPS",
	"REMOTE_MAPS_NO_HOLDER",
	"REMOTE_MAPS_DELAYED",
	"SPECULATIVE_MAP_ATTEMPTS",
	"TASK_RETRIES",
	"hdfs.failovers",
}

// WriteText renders the EXPLAIN ANALYZE report: header, per-phase wall/self
// table, counters, stragglers, critical path, and the span tree trimmed to
// the interesting depth.
func (p *Profile) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN ANALYZE %s  (trace %s", p.Query, p.Trace)
	if p.ResultCache != "" {
		fmt.Fprintf(w, ", result cache %s", p.ResultCache)
	}
	fmt.Fprintln(w, ")")
	if p.Read != "" {
		fmt.Fprintf(w, "read: %s\n", p.Read)
	}
	if p.Plan != "" {
		fmt.Fprintf(w, "plan: %s\n", p.Plan)
	}
	fmt.Fprintf(w, "wall %v, %d spans", p.Wall.Round(time.Microsecond), p.Spans)
	if p.Orphans > 0 {
		fmt.Fprintf(w, ", %d ORPHANS", p.Orphans)
	}
	if p.Dropped > 0 {
		fmt.Fprintf(w, ", %d spans dropped", p.Dropped)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "phase attribution (walls partition the query's %v):\n", p.Wall.Round(time.Microsecond))
	fmt.Fprintf(w, "  %-16s %12s %7s %12s %6s\n", "phase", "wall", "%", "busy", "spans")
	for _, st := range p.Phases {
		pct := 0.0
		if p.Wall > 0 {
			pct = 100 * float64(st.Wall) / float64(p.Wall)
		}
		fmt.Fprintf(w, "  %-16s %12v %6.1f%% %12v %6d\n",
			st.Name, st.Wall.Round(time.Microsecond), pct, st.Busy.Round(time.Microsecond), st.Count)
	}

	if len(p.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		printed := map[string]bool{}
		for _, name := range reportCounters {
			if v, ok := p.Counters[name]; ok && v != 0 {
				fmt.Fprintf(w, "  %-28s %d\n", name, v)
				printed[name] = true
			}
		}
		rest := make([]string, 0, len(p.Counters))
		for name, v := range p.Counters {
			if !printed[name] && v != 0 {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		for _, name := range rest {
			fmt.Fprintf(w, "  %-28s %d\n", name, p.Counters[name])
		}
	}

	if len(p.Stragglers) > 0 {
		fmt.Fprintln(w, "stragglers:")
		for _, s := range p.Stragglers {
			fmt.Fprintf(w, "  %s %s on %s: %v = %.1fx the %v median; time sits in %q\n",
				s.Job, s.TaskID, s.Node, s.Duration.Round(time.Microsecond),
				s.Factor, s.Median.Round(time.Microsecond), s.Phase)
		}
	}

	if len(p.CriticalPath) > 0 {
		fmt.Fprint(w, "critical path: ")
		for i, st := range p.CriticalPath {
			if i > 0 {
				fmt.Fprint(w, " > ")
			}
			label := st.Name
			if st.TaskID != "" {
				label += "[" + st.TaskID + "]"
			}
			fmt.Fprintf(w, "%s %v", label, st.Duration.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "tree:")
	p.writeNode(w, p.Root, 0)
}

// writeNode prints the tree down to task phases, collapsing repetitive
// leaves (per-column HDFS reads) into a count.
func (p *Profile) writeNode(w io.Writer, n *ProfileNode, depth int) {
	indent := strings.Repeat("  ", depth+1)
	label := n.Span.Name
	if n.Span.TaskID != "" && n.Span.Name == PhaseTask {
		label = fmt.Sprintf("%s %s@%s", n.Span.Name, n.Span.TaskID, n.Span.Node)
	} else if n.Span.Job != "" && n.Span.Name == PhaseJob {
		label = fmt.Sprintf("%s %s", n.Span.Name, n.Span.Job)
	}
	fmt.Fprintf(w, "%s%-28s wall %10v  self %10v\n", indent, label,
		n.Span.Duration().Round(time.Microsecond), n.Self.Round(time.Microsecond))
	// Collapse uniform leaf fans (e.g. dozens of hdfs-read spans under one
	// read span) into a single summary line.
	byName := map[string][]*ProfileNode{}
	var order []string
	for _, c := range n.Children {
		if _, ok := byName[c.Span.Name]; !ok {
			order = append(order, c.Span.Name)
		}
		byName[c.Span.Name] = append(byName[c.Span.Name], c)
	}
	for _, name := range order {
		group := byName[name]
		if len(group) > 4 && leavesOnly(group) {
			var total time.Duration
			for _, c := range group {
				total += c.Span.Duration()
			}
			fmt.Fprintf(w, "%s  %-28s %d spans, total %v\n",
				indent, name+" ×"+fmt.Sprint(len(group)), len(group), total.Round(time.Microsecond))
			continue
		}
		for _, c := range group {
			p.writeNode(w, c, depth+1)
		}
	}
}

func leavesOnly(ns []*ProfileNode) bool {
	for _, n := range ns {
		if len(n.Children) > 0 {
			return false
		}
	}
	return true
}

// jsonProfile is the JSON wire shape of a profile.
type jsonProfile struct {
	Trace       string           `json:"trace"`
	Query       string           `json:"query"`
	Read        string           `json:"read,omitempty"`
	Plan        string           `json:"plan,omitempty"`
	ResultCache string           `json:"result_cache,omitempty"`
	StartNs     int64            `json:"start_ns"`
	WallNs      int64            `json:"wall_ns"`
	Spans       int              `json:"spans"`
	Orphans     int              `json:"orphans,omitempty"`
	Dropped     int64            `json:"dropped,omitempty"`
	Phases      []jsonPhase      `json:"phases"`
	Stragglers  []jsonStraggler  `json:"stragglers,omitempty"`
	Critical    []jsonStep       `json:"critical_path,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	Root        *jsonNode        `json:"root"`
}

type jsonPhase struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
	BusyNs int64  `json:"busy_ns"`
	Count  int    `json:"count"`
}

type jsonStraggler struct {
	Job      string  `json:"job"`
	Task     string  `json:"task"`
	Node     string  `json:"node"`
	DurNs    int64   `json:"dur_ns"`
	MedianNs int64   `json:"median_ns"`
	Factor   float64 `json:"factor"`
	Phase    string  `json:"phase"`
}

type jsonStep struct {
	Name  string `json:"name"`
	Job   string `json:"job,omitempty"`
	Task  string `json:"task,omitempty"`
	Node  string `json:"node,omitempty"`
	DurNs int64  `json:"dur_ns"`
}

type jsonNode struct {
	Name     string            `json:"name"`
	Span     string            `json:"span"`
	Job      string            `json:"job,omitempty"`
	Task     string            `json:"task,omitempty"`
	Node     string            `json:"node,omitempty"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	SelfNs   int64             `json:"self_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*jsonNode       `json:"children,omitempty"`
}

func toJSONNode(n *ProfileNode) *jsonNode {
	out := &jsonNode{
		Name:    n.Span.Name,
		Span:    n.Span.SpanID,
		Job:     n.Span.Job,
		Task:    n.Span.TaskID,
		Node:    n.Span.Node,
		StartNs: n.Span.Start.UnixNano(),
		DurNs:   int64(n.Span.Duration()),
		SelfNs:  int64(n.Self),
		Attrs:   n.Span.Attrs,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, toJSONNode(c))
	}
	return out
}

// MarshalJSON renders the profile's wire shape, so a []*Profile (the
// /profilez body) marshals directly.
func (p *Profile) MarshalJSON() ([]byte, error) {
	out := jsonProfile{
		Trace:       p.Trace,
		Query:       p.Query,
		Read:        p.Read,
		Plan:        p.Plan,
		ResultCache: p.ResultCache,
		StartNs:     p.Start.UnixNano(),
		WallNs:      int64(p.Wall),
		Spans:       p.Spans,
		Orphans:     p.Orphans,
		Dropped:     p.Dropped,
		Counters:    p.Counters,
		Root:        toJSONNode(p.Root),
	}
	for _, st := range p.Phases {
		out.Phases = append(out.Phases, jsonPhase{st.Name, int64(st.Wall), int64(st.Busy), st.Count})
	}
	for _, s := range p.Stragglers {
		out.Stragglers = append(out.Stragglers, jsonStraggler{
			s.Job, s.TaskID, s.Node, int64(s.Duration), int64(s.Median), s.Factor, s.Phase,
		})
	}
	for _, st := range p.CriticalPath {
		out.Critical = append(out.Critical, jsonStep{st.Name, st.Job, st.TaskID, st.Node, int64(st.Duration)})
	}
	return json.Marshal(out)
}

// WriteJSON serializes the profile (indented) for the debug server and
// `benchssb -profile-json`.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
