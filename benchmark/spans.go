package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark's own trace: spans recorded from the benchmark's files
// around every call it makes into a layer (slice → query → sql.parse |
// serve.query | core.run | hive.execute | serve.rollin, and probe.<layer>.<fn>
// for the direct timed calls). Nothing here touches the program; its own
// tracer is switched on separately (env.setTracing). Spans stay in memory
// and are written out when the run ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Query  int    `json:"query,omitempty"` // spans of one query share it
	Start  int64  `json:"start_ns"`        // since the log was created
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when the log is off, which every
// other method accepts as "no span").
func (l *spanLog) begin(name string, parent, query int) int {
	if !l.on {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Query: query, Start: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := childIndex(spans)
	out := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// coverOf returns the share of the named spans' total duration that their
// children cover: how much of that level the next level explains.
func coverOf(spans []span, name string) float64 {
	children := childIndex(spans)
	var total, cov int64
	for i := range spans {
		s := &spans[i]
		if s.Name != name {
			continue
		}
		total += s.End - s.Start
		cov += covered(s, children[s.ID])
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

func childIndex(spans []span) map[int][]*span {
	idx := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			idx[p] = append(idx[p], &spans[i])
		}
	}
	return idx
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sorted := append([]*span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var sum int64
	end := parent.Start
	for _, k := range sorted {
		s, e := k.Start, k.End
		if s < end {
			s = end
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			sum += e - s
			end = e
		}
	}
	return sum
}
