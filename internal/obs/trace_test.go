package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpanContextBasics(t *testing.T) {
	root := NewTrace()
	if !root.Valid() {
		t.Fatal("NewTrace not valid")
	}
	child := root.NewChild()
	if child.Trace != root.Trace || child.Span == root.Span {
		t.Fatalf("child = %+v from root %+v", child, root)
	}
	var s Span
	child.Fill(&s, root.Span)
	if s.Trace != root.Trace || s.SpanID != child.Span || s.Parent != root.Span {
		t.Fatalf("Fill produced %+v", s)
	}

	var zero SpanContext
	if zero.Valid() || zero.NewChild().Valid() {
		t.Fatal("zero SpanContext must stay invalid")
	}
	var s2 Span
	zero.Fill(&s2, "p")
	if s2.Trace != "" || s2.SpanID != "" || s2.Parent != "" {
		t.Fatalf("zero Fill stamped %+v", s2)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	sc := NewTrace()
	ctx := ContextWith(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context should carry no trace")
	}
}

func TestTraceCollector(t *testing.T) {
	c := NewTraceCollector(2, 3)
	emit := func(trace string, n int) {
		for i := 0; i < n; i++ {
			c.Emit(Span{Trace: trace, SpanID: "s", Name: PhaseMap})
		}
	}
	emit("t1", 2)
	emit("t2", 5)                // two spans over the cap of 3
	c.Emit(Span{Name: PhaseMap}) // untraced: dropped silently

	spans, dropped := c.Take("t2")
	if len(spans) != 3 || dropped != 2 {
		t.Fatalf("t2: %d spans, %d dropped; want 3, 2", len(spans), dropped)
	}
	if _, d := c.Take("t2"); d != 0 {
		t.Fatal("Take must claim a trace exactly once")
	}

	// Eviction: with t1 live, two new traces push it out (maxTraces=2).
	emit("t3", 1)
	emit("t4", 1)
	if spans, _ := c.Take("t1"); spans != nil {
		t.Fatalf("t1 should have been evicted, got %d spans", len(spans))
	}
	if n := len(c.traces); n != 2 {
		t.Fatalf("live traces = %d, want 2", n)
	}
}

func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder(2)
	f.Record(nil)
	if f.Total() != 0 {
		t.Fatal("nil profiles must not count")
	}
	mk := func(trace string) *Profile { return &Profile{Trace: trace, Wall: time.Second} }
	f.Record(mk("t1"))
	f.Record(mk("t2"))
	f.Record(mk("t3")) // evicts t1

	recent := f.Recent()
	if len(recent) != 2 || recent[0].Trace != "t3" || recent[1].Trace != "t2" {
		t.Fatalf("recent = %+v, want [t3 t2]", recent)
	}
	if f.Get("t1") != nil {
		t.Fatal("t1 should have been evicted")
	}
	if p := f.Get("t2"); p == nil || p.Trace != "t2" {
		t.Fatalf("Get(t2) = %+v", p)
	}
	if f.Total() != 3 {
		t.Fatalf("total = %d, want 3", f.Total())
	}
}
