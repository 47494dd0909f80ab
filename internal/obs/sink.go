package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// MemorySink retains spans in memory, for tests and in-process renderers
// (the timeline).
type MemorySink struct {
	mu    sync.Mutex
	spans []Span
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (m *MemorySink) Emit(s Span) {
	m.mu.Lock()
	m.spans = append(m.spans, s)
	m.mu.Unlock()
}

// Spans returns a copy of the collected spans.
func (m *MemorySink) Spans() []Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Span(nil), m.spans...)
}

// Reset discards the collected spans.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.spans = nil
	m.mu.Unlock()
}

// jsonSpan is the JSONL wire shape: one event per line.
type jsonSpan struct {
	Trace  string            `json:"trace,omitempty"`
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	Job    string            `json:"job,omitempty"`
	Name   string            `json:"name"`
	Node   string            `json:"node,omitempty"`
	Task   string            `json:"task,omitempty"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	DurNs  int64             `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// JSONLSink writes one JSON object per span per line — the export format
// behind the `-trace out.jsonl` CLI flag. Write errors are sticky: the
// first one stops further output and is reported by Err.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink creates a sink writing to w. The caller owns w's lifetime
// (close the file after the traced work completes).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONLSink) Emit(s Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonSpan{
		Trace:  s.Trace,
		Span:   s.SpanID,
		Parent: s.Parent,
		Job:    s.Job,
		Name:   s.Name,
		Node:   s.Node,
		Task:   s.TaskID,
		Start:  s.Start,
		End:    s.End,
		DurNs:  int64(s.Duration()),
		Attrs:  s.Attrs,
	})
}

// Err returns the first write error, if any.
func (j *JSONLSink) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
