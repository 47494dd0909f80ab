package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func span(job, name, node, task string, start, end time.Time) Span {
	return Span{Job: job, Name: name, Node: node, TaskID: task, Start: start, End: end}
}

func TestTracerDisabledByDefault(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Error("nil tracer must report disabled")
	}
	nilTracer.Emit(Span{Name: "x"}) // must not panic

	tr := NewTracer()
	if tr.Enabled() {
		t.Error("sink-less tracer must start disabled")
	}
	sink := NewMemorySink()
	tr.AddSink(sink)
	if !tr.Enabled() {
		t.Error("tracer with a sink must be enabled")
	}
	tr.Emit(Span{Name: "a"})
	if n := len(sink.Spans()); n != 1 {
		t.Errorf("sink got %d spans, want 1", n)
	}
	sink.Reset()
	if len(sink.Spans()) != 0 {
		t.Error("reset did not clear the sink")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	sink := NewMemorySink()
	tr := NewTracer(sink)
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Span{Name: "e"})
			}
		}()
	}
	wg.Wait()
	if n := len(sink.Spans()); n != goroutines*perG {
		t.Errorf("got %d spans, want %d", n, goroutines*perG)
	}
}

func TestAttrs(t *testing.T) {
	if Attrs() != nil {
		t.Error("Attrs() should be nil")
	}
	if Attrs("lone") != nil {
		t.Error("Attrs with one arg should be nil")
	}
	m := Attrs("a", "1", "b", "2", "trailing")
	if len(m) != 2 || m["a"] != "1" || m["b"] != "2" {
		t.Errorf("Attrs = %v", m)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	base := time.Unix(1000, 0).UTC()
	sink.Emit(Span{Job: "j1", Name: "map", Node: "n0", TaskID: "m-0",
		Start: base, End: base.Add(5 * time.Millisecond),
		Attrs: map[string]string{"local": "true"}})
	sink.Emit(span("j1", "reduce", "n1", "r-0", base, base.Add(time.Millisecond)))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec struct {
		Job   string            `json:"job"`
		Name  string            `json:"name"`
		Node  string            `json:"node"`
		Task  string            `json:"task"`
		DurNs int64             `json:"dur_ns"`
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if rec.Job != "j1" || rec.Name != "map" || rec.Node != "n0" || rec.Task != "m-0" {
		t.Errorf("decoded %+v", rec)
	}
	if rec.DurNs != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("dur_ns = %d", rec.DurNs)
	}
	if rec.Attrs["local"] != "true" {
		t.Errorf("attrs = %v", rec.Attrs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 < 49 || s.P50 > 51 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 < 98 || s.P99 > 100 {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.Sum != 5050 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Set(5)
	r.Histogram("h_ns").ObserveDuration(time.Millisecond)

	if r.Counter("c").Value() != 4 {
		t.Errorf("counter = %d", r.Counter("c").Value())
	}
	s := r.Snapshot()
	if s.Counters["c"] != 4 || s.Gauges["g"] != 5 || s.Histograms["h_ns"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}

	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"counter", "gauge", "histogram", "h_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}

// BenchmarkEmitDisabled pins the hot-path contract: with no sinks, the span
// guard is one atomic load (plus nothing).
func BenchmarkEmitDisabled(b *testing.B) {
	tr := NewTracer()
	s := Span{Name: PhaseMap}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(s)
	}
}
