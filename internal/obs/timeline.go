package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// phaseGlyphs is each phase's timeline glyph, in legend order. A glyph is
// optional: a phase without one draws the first letter of its name.
var phaseGlyphs = []struct {
	name  string
	glyph rune
}{
	{PhaseQueueWait, 'q'}, {PhaseLaunch, 'l'}, {PhaseJVMStart, 'J'},
	{PhaseRead, 'r'}, {PhaseMap, 'M'}, {PhaseHashBuild, 'H'},
	{PhaseProbe, 'P'}, {PhaseCombine, 'C'}, {PhaseSpill, 'W'},
	{PhaseShuffle, 'S'}, {PhaseSort, 'O'}, {PhaseReduce, 'R'},
}

func glyphOf(name string) rune {
	for _, g := range phaseGlyphs {
		if g.name == name {
			return g.glyph
		}
	}
	if name == "" {
		return '?'
	}
	return rune(name[0])
}

// WriteTimeline draws the profile's task attempts as a per-node Gantt
// chart, one lane per task node of the tree (a map re-executed inside a
// shuffle included), so stragglers, skew and speculative attempts show as
// long bars on their node's lanes. A cell shows the deepest of the
// attempt's own phases covering it — the descendants carrying the task's
// TaskID, ties broken as attributePhases breaks them — so hdfs-read spans
// and a nested attempt draw nothing in the lane.
func (p *Profile) WriteTimeline(w io.Writer) {
	const width = 64 // a lane's bar width in cells
	var tasks []*ProfileNode
	var collect func(*ProfileNode)
	collect = func(n *ProfileNode) {
		if n.Span.Name == PhaseTask && n.Span.TaskID != "" {
			tasks = append(tasks, n)
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(p.Root)
	if len(tasks) == 0 {
		fmt.Fprintln(w, "timeline: no task spans recorded")
		return
	}
	sort.Slice(tasks, func(i, j int) bool {
		a, b := tasks[i].Span, tasks[j].Span
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.TaskID < b.TaskID
	})
	t0, t1 := tasks[0].Span.Start, tasks[0].Span.End
	for _, t := range tasks {
		if t.Span.Start.Before(t0) {
			t0 = t.Span.Start
		}
		if t.Span.End.After(t1) {
			t1 = t.Span.End
		}
	}
	total := t1.Sub(t0)
	if total <= 0 {
		total = 1
	}
	// cells is the range of cells a span covers, at least one.
	cells := func(s Span) (from, to int) {
		from = int(float64(s.Start.Sub(t0)) / float64(total) * width)
		to = int(float64(s.End.Sub(t0))/float64(total)*width + 0.9999)
		from, to = max(from, 0), min(to, width)
		if to <= from {
			to = from + 1
			if to > width {
				from, to = width-1, width
			}
		}
		return from, to
	}

	used := map[string]bool{}
	fmt.Fprintf(w, "timeline: %d lanes over %v\n", len(tasks), total.Round(time.Microsecond))
	prevNode := "\x00none"
	for _, task := range tasks {
		if task.Span.Node != prevNode {
			fmt.Fprintf(w, "%s\n", task.Span.Node)
			prevNode = task.Span.Node
		}
		top := make([]*ProfileNode, width)
		var paint func(*ProfileNode)
		paint = func(n *ProfileNode) {
			for _, c := range n.Children {
				paint(c)
				if c.Span.TaskID != task.Span.TaskID || c.Span.Duration() <= 0 {
					continue
				}
				from, to := cells(c.Span)
				for i := from; i < to; i++ {
					if top[i] == nil || deeper(c, top[i]) {
						top[i] = c
					}
				}
			}
		}
		paint(task)
		bar := []rune(strings.Repeat(".", width))
		for i, n := range top {
			if n != nil {
				bar[i] = glyphOf(n.Span.Name)
				used[n.Span.Name] = true
			}
		}
		fmt.Fprintf(w, "  %-8s |%s| %v\n", task.Span.TaskID, string(bar), task.Span.Duration().Round(time.Microsecond))
	}

	var legend []string
	for _, g := range phaseGlyphs {
		if used[g.name] {
			legend = append(legend, fmt.Sprintf("%c=%s", g.glyph, g.name))
			delete(used, g.name)
		}
	}
	var extra []string
	for name := range used {
		extra = append(extra, fmt.Sprintf("%c=%s", glyphOf(name), name))
	}
	sort.Strings(extra)
	legend = append(legend, extra...)
	if len(legend) > 0 {
		fmt.Fprintf(w, "legend: %s\n", strings.Join(legend, " "))
	}
}
