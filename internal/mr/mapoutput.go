package mr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"clydesdale/internal/records"
)

// The intermediate record path. A map task serialises every pair it collects
// once, into one growing buffer, and keeps an index entry per pair; sorting,
// combining, spilling, shuffling and merging move index entries and never the
// bytes. Pairs order by partition, then raw key bytes, then emit order. The
// byte order differs from records.Record.Compare order (varints are not
// order-preserving), which is fine: reducers only need equal keys adjacent
// (the codec is deterministic, so equal keys have identical encodings), and
// the driver applies any user-visible ordering itself. The one caveat: float
// keys whose Compare treats distinct bit patterns as equal (NaN, ±0.0)
// encode differently and land in separate groups.

// pairRef is the index entry of one serialised pair.
type pairRef struct {
	// prefix is the key's first eight bytes, big-endian and zero-padded, so
	// most comparisons are settled without touching the buffer. Where two
	// prefixes differ they order as the keys do.
	prefix uint64
	// off is where the key starts in the buffer; the value follows the key.
	// Pairs are appended as they are collected, so off is also emit order.
	off  int
	klen uint32
	vlen uint32
	part uint32
}

func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// pairBuffer is a sequence of serialised pairs and their index.
type pairBuffer struct {
	data []byte
	refs []pairRef
}

// add serialises one pair at the end of the buffer and returns its size in
// bytes (key plus value, the unit of every spill and shuffle charge).
func (b *pairBuffer) add(part int, k, v records.Record) int {
	off := len(b.data)
	b.data = records.AppendRecord(b.data, k)
	klen := len(b.data) - off
	b.data = records.AppendRecord(b.data, v)
	vlen := len(b.data) - off - klen
	b.refs = append(b.refs, pairRef{
		prefix: keyPrefix(b.data[off : off+klen]),
		off:    off, klen: uint32(klen), vlen: uint32(vlen), part: uint32(part),
	})
	return klen + vlen
}

func (b *pairBuffer) sort() {
	data := b.data
	slices.SortFunc(b.refs, func(x, y pairRef) int {
		if x.part != y.part {
			return cmp.Compare(x.part, y.part)
		}
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		if c := bytes.Compare(data[x.off:x.off+int(x.klen)], data[y.off:y.off+int(y.klen)]); c != 0 {
			return c
		}
		return cmp.Compare(x.off, y.off)
	})
}

// pairRun is one sorted run of pairs: a partition of one map task's output.
type pairRun struct {
	data []byte
	refs []pairRef
}

func (r *pairRun) headKey() []byte {
	h := &r.refs[0]
	return r.data[h.off : h.off+int(h.klen)]
}

// mapOutput is the sorted, combined output of one map task, resident on the
// local disk of the node that ran it.
type mapOutput struct {
	node  string
	pairs pairBuffer
	ends  []int   // partition p is pairs.refs[ends[p-1]:ends[p]]
	bytes []int64 // key and value bytes per partition
}

func (mo *mapOutput) run(p int) pairRun {
	start := 0
	if p > 0 {
		start = mo.ends[p-1]
	}
	return pairRun{data: mo.pairs.data, refs: mo.pairs.refs[start:mo.ends[p]]}
}

// mapCollector partitions and buffers map output, then sorts and combines.
// Collect serializes immediately and retains no records, so mappers and map
// runners may reuse key/value records (and their backing value slices)
// across Collect calls. The threads of a multi-threaded runner share it.
type mapCollector struct {
	mu          sync.Mutex
	pairs       pairBuffer
	partBytes   []int64
	partitioner Partitioner
	tally       *tally
}

func newMapCollector(numParts int, p Partitioner, t *tally) *mapCollector {
	return &mapCollector{partBytes: make([]int64, numParts), partitioner: p, tally: t}
}

func (c *mapCollector) Collect(k, v records.Record) error {
	p := c.partitioner(k, len(c.partBytes))
	if p < 0 || p >= len(c.partBytes) {
		return fmt.Errorf("mr: partitioner returned %d of %d", p, len(c.partBytes))
	}
	// Serialization happens here, as in Hadoop's collect path; its cost is
	// real work in the simulation too.
	c.mu.Lock()
	n := int64(c.pairs.add(p, k, v))
	c.partBytes[p] += n
	c.tally.mapOutput++
	c.tally.mapOutputBytes += n
	c.mu.Unlock()
	return nil
}

// sorted sorts what was collected and cuts it into per-partition runs.
func (c *mapCollector) sorted(node string) *mapOutput {
	c.pairs.sort()
	ends := make([]int, len(c.partBytes))
	for i := range c.pairs.refs {
		ends[c.pairs.refs[i].part]++
	}
	for p := 1; p < len(ends); p++ {
		ends[p] += ends[p-1]
	}
	return &mapOutput{node: node, pairs: c.pairs, ends: ends, bytes: c.partBytes}
}

// finish sorts each partition and applies the combiner.
func (c *mapCollector) finish(ctx *TaskContext, job *Job) (*mapOutput, error) {
	out := c.sorted(ctx.node.ID())
	if job.NewCombiner == nil || len(out.pairs.refs) == 0 {
		return out, nil
	}
	// Each partition's groups go through a fresh combiner into a second
	// collector, whose sort puts back in order what a combiner emitted out
	// of it.
	var emitted tally
	part := 0
	combined := newMapCollector(len(c.partBytes), func(records.Record, int) int { return part }, &emitted)
	for part = range c.partBytes {
		r := out.run(part)
		if len(r.refs) == 0 {
			continue
		}
		comb := job.NewCombiner()
		if err := comb.Setup(ctx); err != nil {
			return nil, err
		}
		before := emitted.mapOutput
		ctx.Counters.Add(CtrCombineInput, int64(len(r.refs)))
		if _, err := forEachGroup(mergeRuns([]pairRun{r}), job.KeySchema, job.ValueSchema, func(key records.Record, vals Values) error {
			return comb.Reduce(key, vals, combined)
		}); err != nil {
			return nil, err
		}
		if err := comb.Cleanup(combined); err != nil {
			return nil, err
		}
		ctx.Counters.Add(CtrCombineOutput, emitted.mapOutput-before)
	}
	return combined.sorted(out.node), nil
}

// mergedRuns is a finished k-way merge of sorted runs: order names, pair by
// pair, the run the next pair comes from, and taking a pair advances that
// run. Pairs come out in key-byte order; equal keys in run order (the order
// the runs were given in: map-task order at a reducer) and, within a run, in
// the order the run holds them (emit order). The bytes stay where they are:
// the merge costs four bytes a pair.
type mergedRuns struct {
	runs  []pairRun
	order []uint32
}

// mergeRuns merges through a binary heap of run numbers ordered by each
// run's head; taking pairs off the result consumes the run headers given.
func mergeRuns(runs []pairRun) *mergedRuns {
	h := runHeap{runs: slices.Clone(runs), heap: make([]int, 0, len(runs))}
	n := 0
	for i := range runs {
		if len(runs[i].refs) > 0 {
			h.heap = append(h.heap, i)
			n += len(runs[i].refs)
		}
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	order := make([]uint32, 0, n)
	for len(h.heap) > 1 {
		top := h.heap[0]
		order = append(order, uint32(top))
		r := &h.runs[top]
		r.refs = r.refs[1:]
		if len(r.refs) == 0 {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		h.down(0)
	}
	if len(h.heap) == 1 { // the last run standing has nothing to be compared with
		for range h.runs[h.heap[0]].refs {
			order = append(order, uint32(h.heap[0]))
		}
	}
	return &mergedRuns{runs: runs, order: order}
}

type runHeap struct {
	runs []pairRun
	heap []int
}

func (m *runHeap) less(a, b int) bool {
	x, y := &m.runs[a], &m.runs[b]
	if px, py := x.refs[0].prefix, y.refs[0].prefix; px != py {
		return px < py
	}
	if c := bytes.Compare(x.headKey(), y.headKey()); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *runHeap) down(i int) {
	h := m.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && m.less(h[r], h[l]) {
			l = r
		}
		if !m.less(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// head returns the run holding the next pair, nil when none is left.
func (m *mergedRuns) head() *pairRun {
	if len(m.order) == 0 {
		return nil
	}
	return &m.runs[m.order[0]]
}

// pop takes the next pair and returns its serialised value.
func (m *mergedRuns) pop() []byte {
	r := &m.runs[m.order[0]]
	m.order = m.order[1:]
	h := r.refs[0]
	r.refs = r.refs[1:]
	v := h.off + int(h.klen)
	return r.data[v : v+int(h.vlen)]
}

// forEachGroup walks the merged pairs and invokes fn once per distinct key
// with an iterator over that key's values, returning the number of groups.
// Keys group by byte equality and are decoded once per group against
// keySchema (nil yields a positional record, matching jobs that set no
// KeySchema). Key and values are decoded into slices reused from group to
// group and from value to value: see Reducer and Values.
func forEachGroup(m *mergedRuns, keySchema, valueSchema *records.Schema, fn func(key records.Record, vals Values) error) (groups int64, err error) {
	vals := groupValues{m: m, schema: valueSchema}
	var key records.Record
	for r := m.head(); r != nil; r = m.head() {
		vals.key, vals.prefix, vals.done = r.headKey(), r.refs[0].prefix, false
		key, _, err = records.DecodeRecordInto(key.Values(), vals.key, keySchema)
		if err != nil {
			return groups, fmt.Errorf("mr: decoding group key: %w", err)
		}
		groups++
		if err := fn(key, &vals); err != nil {
			return groups, err
		}
		if vals.err != nil {
			return groups, vals.err
		}
		for vals.more() { // what the reducer left unread
			m.pop()
		}
	}
	return groups, nil
}

// groupValues lazily decodes the serialized values of one group, taking
// pairs off the merge while their key is the group's.
type groupValues struct {
	m      *mergedRuns
	schema *records.Schema
	key    []byte
	prefix uint64
	done   bool
	val    records.Record
	err    error
}

func (s *groupValues) more() bool {
	if s.done {
		return false
	}
	r := s.m.head()
	if r == nil || r.refs[0].prefix != s.prefix || !bytes.Equal(r.headKey(), s.key) {
		s.done = true
		return false
	}
	return true
}

func (s *groupValues) Next() (records.Record, bool) {
	if s.err != nil || !s.more() {
		return records.Record{}, false
	}
	s.val, _, s.err = records.DecodeRecordInto(s.val.Values(), s.m.pop(), s.schema)
	if s.err != nil {
		return records.Record{}, false
	}
	return s.val, true
}
