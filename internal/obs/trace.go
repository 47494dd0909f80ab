package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
)

// SpanContext is a position in a trace: the trace it belongs to and the ID
// of the span occupying that position. It is the value propagated from
// serve.Session.Query through core.Engine.Run and mr.Engine.Submit down to
// task attempts and HDFS reads, so every span a query causes — across
// concurrent sessions — lands in that query's tree. The zero value is
// "untraced": NewChild on it stays zero and emitted spans carry no IDs.
type SpanContext struct {
	// Trace identifies one end-to-end unit of work (one query).
	Trace string
	// Span is this position's span ID; children emit it as their Parent.
	Span string
}

// Valid reports whether the context belongs to a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != "" }

// traceSeq and spanSeq generate process-unique IDs. Uniqueness — not
// unpredictability — is the requirement: the IDs only ever resolve within
// one process's sinks.
var traceSeq, spanSeq atomic.Uint64

// NewTrace starts a fresh trace and returns its root span context.
func NewTrace() SpanContext {
	return SpanContext{
		Trace: "t" + strconv.FormatUint(traceSeq.Add(1), 16),
		Span:  newSpanID(),
	}
}

// NewChild returns a child position in the same trace with a fresh span ID.
// On an invalid (untraced) context it returns the zero value, so call sites
// need no tracing-enabled checks.
func (sc SpanContext) NewChild() SpanContext {
	if !sc.Valid() {
		return SpanContext{}
	}
	return SpanContext{Trace: sc.Trace, Span: newSpanID()}
}

// Fill stamps the span with this context's IDs and the given parent span
// ID; a no-op on an invalid context.
func (sc SpanContext) Fill(s *Span, parent string) {
	if !sc.Valid() {
		return
	}
	s.Trace = sc.Trace
	s.SpanID = sc.Span
	s.Parent = parent
}

func newSpanID() string { return "s" + strconv.FormatUint(spanSeq.Add(1), 16) }

// traceKey keys the SpanContext stored in a context.Context.
type traceKey struct{}

// ContextWith returns a context carrying sc. Layers that submit work on
// behalf of a traced caller (serve → core → mr) pass it down this way, so
// no signature needs an explicit trace parameter.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, traceKey{}, sc)
}

// FromContext extracts the propagated span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(traceKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// TraceCollector is a Sink that buckets spans by trace ID so a query's
// finished tree can be claimed with Take. It is bounded on both axes: at
// most maxTraces live traces (oldest evicted first) and at most maxSpans
// retained per trace (later spans dropped and counted), so a long-running
// serving session cannot grow it without bound — the flight-recorder
// contract.
type TraceCollector struct {
	mu        sync.Mutex
	traces    map[string]*traceBucket
	order     []string // trace IDs in first-seen order, for eviction
	maxTraces int
	maxSpans  int
}

type traceBucket struct {
	spans   []Span
	dropped int64
}

// DefaultTraceCap and DefaultSpanCap bound a TraceCollector created with
// non-positive limits.
const (
	DefaultTraceCap = 64
	DefaultSpanCap  = 1 << 16
)

// NewTraceCollector creates a collector retaining at most maxTraces traces
// of maxSpans spans each; non-positive limits use the defaults.
func NewTraceCollector(maxTraces, maxSpans int) *TraceCollector {
	if maxTraces <= 0 {
		maxTraces = DefaultTraceCap
	}
	if maxSpans <= 0 {
		maxSpans = DefaultSpanCap
	}
	return &TraceCollector{
		traces:    make(map[string]*traceBucket),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
	}
}

// Emit implements Sink. Untraced spans are dropped: the collector exists to
// assemble per-query trees, and a span without a trace ID belongs to none.
func (c *TraceCollector) Emit(s Span) {
	if s.Trace == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.traces[s.Trace]
	if !ok {
		for len(c.order) >= c.maxTraces {
			delete(c.traces, c.order[0])
			c.order = c.order[1:]
		}
		b = &traceBucket{}
		c.traces[s.Trace] = b
		c.order = append(c.order, s.Trace)
	}
	if len(b.spans) >= c.maxSpans {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// Take removes and returns the spans of one trace and how many were dropped
// to the per-trace cap. The caller (the query that owns the trace) claims
// its tree exactly once, after emitting its root span.
func (c *TraceCollector) Take(trace string) (spans []Span, dropped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.traces[trace]
	if !ok {
		return nil, 0
	}
	delete(c.traces, trace)
	for i, id := range c.order {
		if id == trace {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return b.spans, b.dropped
}

// FlightRecorder keeps the most recent query profiles in a fixed ring — the
// bounded in-memory history behind the debug server's /profilez endpoint.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []*Profile
	next  int
	total int64
}

// NewFlightRecorder creates a recorder holding the last depth profiles;
// non-positive depth uses 16.
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = 16
	}
	return &FlightRecorder{ring: make([]*Profile, depth)}
}

// Record adds a profile, evicting the oldest when full. Nil profiles are
// ignored.
func (f *FlightRecorder) Record(p *Profile) {
	if p == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = p
	f.next = (f.next + 1) % len(f.ring)
	f.total++
	f.mu.Unlock()
}

// Recent returns the recorded profiles, newest first.
func (f *FlightRecorder) Recent() []*Profile {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Profile, 0, len(f.ring))
	for i := 1; i <= len(f.ring); i++ {
		p := f.ring[(f.next-i+len(f.ring))%len(f.ring)]
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Get returns the recorded profile for a trace ID, or nil.
func (f *FlightRecorder) Get(trace string) *Profile {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.ring {
		if p != nil && p.Trace == trace {
			return p
		}
	}
	return nil
}

// Total returns how many profiles have ever been recorded (recorded minus
// evicted is what Recent returns).
func (f *FlightRecorder) Total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}
