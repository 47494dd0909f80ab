package mr

import (
	"sync"

	"clydesdale/internal/records"
)

// BaseReducer provides no-op Setup/Cleanup for embedding.
type BaseReducer struct{}

// Setup implements Reducer.
func (BaseReducer) Setup(*TaskContext) error { return nil }

// Cleanup implements Reducer.
func (BaseReducer) Cleanup(Collector) error { return nil }

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key, value records.Record, out Collector) error

// Setup implements Mapper.
func (MapperFunc) Setup(*TaskContext) error { return nil }

// Map implements Mapper.
func (f MapperFunc) Map(k, v records.Record, out Collector) error { return f(k, v, out) }

// Cleanup implements Mapper.
func (MapperFunc) Cleanup(Collector) error { return nil }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key records.Record, values Values, out Collector) error

// Setup implements Reducer.
func (ReducerFunc) Setup(*TaskContext) error { return nil }

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(k records.Record, vs Values, out Collector) error { return f(k, vs, out) }

// Cleanup implements Reducer.
func (ReducerFunc) Cleanup(Collector) error { return nil }

// ---------------------------------------------------------- memory formats

// MemorySplit is an in-memory input split, mainly for tests: a batch of
// key/value pairs with declared locations.
type MemorySplit struct {
	Pairs []KV
	Hosts []string
}

// KV is one key/value pair.
type KV struct {
	Key   records.Record
	Value records.Record
}

// Locations implements InputSplit.
func (s *MemorySplit) Locations() []string { return s.Hosts }

// Length implements InputSplit.
func (s *MemorySplit) Length() int64 { return int64(len(s.Pairs)) }

// MemoryInput is an InputFormat over in-memory splits.
type MemoryInput struct {
	SplitsList []*MemorySplit
}

// Splits implements InputFormat.
func (m *MemoryInput) Splits(*JobContext) ([]InputSplit, error) {
	out := make([]InputSplit, len(m.SplitsList))
	for i, s := range m.SplitsList {
		out[i] = s
	}
	return out, nil
}

// Open implements InputFormat.
func (m *MemoryInput) Open(split InputSplit, _ *TaskContext) (RecordReader, error) {
	return &memoryReader{pairs: split.(*MemorySplit).Pairs}, nil
}

type memoryReader struct {
	pairs []KV
	pos   int
}

func (r *memoryReader) Next() (records.Record, records.Record, bool, error) {
	if r.pos >= len(r.pairs) {
		return records.Record{}, records.Record{}, false, nil
	}
	kv := r.pairs[r.pos]
	r.pos++
	return kv.Key, kv.Value, true, nil
}

func (r *memoryReader) Close() error { return nil }

// MemoryOutput collects job output pairs in memory, preserving no
// particular cross-task order. It is safe for concurrent tasks.
type MemoryOutput struct {
	mu    sync.Mutex
	pairs []KV
}

// OpenWriter implements OutputFormat.
func (m *MemoryOutput) OpenWriter(*TaskContext, int) (RecordWriter, error) {
	return &memoryWriter{out: m}, nil
}

// Pairs returns the collected output.
func (m *MemoryOutput) Pairs() []KV {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]KV(nil), m.pairs...)
}

type memoryWriter struct{ out *MemoryOutput }

func (w *memoryWriter) Write(k, v records.Record) error {
	// Clone: writers retain nothing past Write in the real formats, so
	// producers (e.g. CIF's row reader) reuse record backing slices.
	w.out.mu.Lock()
	w.out.pairs = append(w.out.pairs, KV{Key: k.Clone(), Value: v.Clone()})
	w.out.mu.Unlock()
	return nil
}

// WriteEncoded decodes a copy of value: a record the output keeps.
func (w *memoryWriter) WriteEncoded(value []byte) error {
	v, _, err := records.DecodeRecord(value, nil)
	if err != nil {
		return err
	}
	w.out.mu.Lock()
	w.out.pairs = append(w.out.pairs, KV{Value: v})
	w.out.mu.Unlock()
	return nil
}

func (w *memoryWriter) Close() error { return nil }

// DiscardOutput drops all output (benchmarks that only exercise the input
// path, e.g. TestDFSIO reads).
type DiscardOutput struct{}

// OpenWriter implements OutputFormat.
func (DiscardOutput) OpenWriter(*TaskContext, int) (RecordWriter, error) { return discardWriter{}, nil }

type discardWriter struct{}

func (discardWriter) Write(_, _ records.Record) error { return nil }
func (discardWriter) WriteEncoded([]byte) error       { return nil }
func (discardWriter) Close() error                    { return nil }
