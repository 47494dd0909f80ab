package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// TimelineOptions configures RenderTimeline.
type TimelineOptions struct {
	// Job filters spans to one job ID; empty renders all task spans.
	Job string
}

// phaseStyle maps a span name to its timeline glyph and overlay priority.
// Finer phases get higher priority so they draw on top of the coarse span
// that contains them (read happens inside map/probe, probe inside map).
var phaseStyle = map[string]struct {
	glyph rune
	prio  int
}{
	PhaseMap:       {'M', 1},
	PhaseReduce:    {'R', 1},
	PhaseQueueWait: {'q', 2},
	PhaseLaunch:    {'l', 2},
	PhaseJVMStart:  {'J', 3},
	PhaseShuffle:   {'S', 2},
	PhaseSort:      {'O', 2},
	PhaseCombine:   {'C', 2},
	PhaseSpill:     {'W', 2},
	PhaseProbe:     {'P', 2},
	PhaseHashBuild: {'H', 3},
	PhaseRead:      {'r', 4},
}

var phaseLegendOrder = []string{
	PhaseQueueWait, PhaseLaunch, PhaseJVMStart, PhaseRead, PhaseMap,
	PhaseHashBuild, PhaseProbe, PhaseCombine, PhaseSpill, PhaseShuffle,
	PhaseSort, PhaseReduce,
}

func styleOf(name string) (rune, int) {
	if st, ok := phaseStyle[name]; ok {
		return st.glyph, st.prio
	}
	if name == "" {
		return '?', 0
	}
	return rune(name[0]), 5
}

// lane is one task attempt chain's row: every span of one (node, task).
type lane struct {
	node, task string
	spans      []Span
	first      time.Time
	last       time.Time
}

// RenderTimeline prints a per-node Gantt chart of task attempts built from
// spans: one lane per (node, task), phases overlaid by glyph. Stragglers
// and skew are visible as long bars on their node's lanes. Spans without a
// TaskID (e.g. raw HDFS reads) are excluded.
func RenderTimeline(w io.Writer, spans []Span, opts TimelineOptions) {
	const width = 64 // a lane's bar width in cells
	lanes := map[string]*lane{}
	var t0, t1 time.Time
	n := 0
	for _, s := range spans {
		if s.TaskID == "" || (opts.Job != "" && s.Job != opts.Job) {
			continue
		}
		n++
		key := s.Node + "\x00" + s.TaskID
		l, ok := lanes[key]
		if !ok {
			l = &lane{node: s.Node, task: s.TaskID, first: s.Start, last: s.End}
			lanes[key] = l
		}
		l.spans = append(l.spans, s)
		if s.Start.Before(l.first) {
			l.first = s.Start
		}
		if s.End.After(l.last) {
			l.last = s.End
		}
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
		if t1.IsZero() || s.End.After(t1) {
			t1 = s.End
		}
	}
	if n == 0 {
		fmt.Fprintln(w, "timeline: no task spans recorded")
		return
	}
	total := t1.Sub(t0)
	if total <= 0 {
		total = 1
	}

	ordered := make([]*lane, 0, len(lanes))
	for _, l := range lanes {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if !a.first.Equal(b.first) {
			return a.first.Before(b.first)
		}
		return a.task < b.task
	})

	used := map[string]bool{}
	fmt.Fprintf(w, "timeline: %d lanes over %v\n", len(ordered), total.Round(time.Microsecond))
	prevNode := "\x00none"
	for _, l := range ordered {
		if l.node != prevNode {
			fmt.Fprintf(w, "%s\n", l.node)
			prevNode = l.node
		}
		cells := make([]rune, width)
		prios := make([]int, width)
		for i := range cells {
			cells[i] = '.'
		}
		// Deterministic overlay: sort the lane's spans by priority (coarse
		// first), then start time, then name.
		sort.Slice(l.spans, func(i, j int) bool {
			_, pi := styleOf(l.spans[i].Name)
			_, pj := styleOf(l.spans[j].Name)
			if pi != pj {
				return pi < pj
			}
			if !l.spans[i].Start.Equal(l.spans[j].Start) {
				return l.spans[i].Start.Before(l.spans[j].Start)
			}
			return l.spans[i].Name < l.spans[j].Name
		})
		for _, s := range l.spans {
			if s.Duration() <= 0 {
				continue
			}
			used[s.Name] = true
			g, p := styleOf(s.Name)
			from := int(float64(s.Start.Sub(t0)) / float64(total) * float64(width))
			to := int(float64(s.End.Sub(t0))/float64(total)*float64(width) + 0.9999)
			if from < 0 {
				from = 0
			}
			if to > width {
				to = width
			}
			if to <= from {
				to = from + 1
				if to > width {
					from, to = width-1, width
				}
			}
			for i := from; i < to; i++ {
				if p >= prios[i] {
					cells[i] = g
					prios[i] = p
				}
			}
		}
		fmt.Fprintf(w, "  %-8s |%s| %v\n", l.task, string(cells), l.last.Sub(l.first).Round(time.Microsecond))
	}

	var legend []string
	for _, name := range phaseLegendOrder {
		if used[name] {
			g, _ := styleOf(name)
			legend = append(legend, fmt.Sprintf("%c=%s", g, name))
		}
	}
	var extra []string
	for name := range used {
		if _, ok := phaseStyle[name]; !ok {
			g, _ := styleOf(name)
			extra = append(extra, fmt.Sprintf("%c=%s", g, name))
		}
	}
	sort.Strings(extra)
	legend = append(legend, extra...)
	if len(legend) > 0 {
		fmt.Fprintf(w, "legend: %s\n", strings.Join(legend, " "))
	}
}

// WritePhaseSummary prints a sorted per-phase total of the given aggregate
// (as produced by AggregatePhases): the measured where-time-went table.
func WritePhaseSummary(w io.Writer, phases map[string]time.Duration) {
	type row struct {
		name string
		d    time.Duration
	}
	rows := make([]row, 0, len(phases))
	for name, d := range phases {
		rows = append(rows, row{name, d})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %12v\n", r.name, r.d.Round(time.Microsecond))
	}
}
