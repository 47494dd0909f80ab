package mr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
//
// Both orderings, the map task's sort and the reducer's merge, are one LSD
// radix sort of index entries on (partition, prefix), with comparisons left
// only where the prefix does not settle the order (sortRefs).

// pairRef is the index entry of one serialised pair.
type pairRef struct {
	// prefix is the key's first eight bytes, big-endian and zero-padded, so
	// most comparisons are settled without touching the buffer. Where two
	// prefixes differ they order as the keys do.
	prefix uint64
	// off is where the key starts in its buffer; the value follows the key.
	// Pairs are appended as they are collected, so off is also emit order.
	off  int
	klen uint32
	vlen uint32
	part uint32
	// src names the buffer off points into: 0 in a map task, the run number
	// in a reducer's merge.
	src uint32
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

// prefixHoldsKeys reports whether two keys of equal prefix are equal exactly
// when their lengths are: keys of at most eight bytes lie whole in the prefix.
func prefixHoldsKeys(klen uint32) bool { return klen <= 8 }

// sortRefs orders refs by partition, then key bytes, keeping their given
// order among equal keys. It returns the sorted entries, refs or scratch (of
// refs' length), whichever the last pass wrote, and the other as spare.
// data[r.src] is the buffer r's key lies in.
//
// A stable LSD radix sort orders the entries on the twelve bytes of
// (partition, prefix), least significant first, skipping every byte on which
// all entries agree. Within a run of equal (partition, prefix) the entries
// are then in the given order; only where the prefix does not hold the run's
// keys whole (a key longer than eight bytes, or keys of different lengths:
// the padding cannot tell nil from {0}) does a comparison sort put them in
// key-byte order, ties kept by (src, off): the given order, since equal keys
// come in that order within a buffer.
func sortRefs(refs, scratch []pairRef, data [][]byte) (sorted, spare []pairRef) {
	if len(refs) < 2 {
		return refs, scratch
	}
	// The bits in which some entry differs from the first: a byte with none
	// set is one all entries share, and its pass is skipped.
	var differ [2]uint64
	for i := range refs {
		differ[0] |= refs[i].prefix ^ refs[0].prefix
		differ[1] |= uint64(refs[i].part ^ refs[0].part)
	}
	src, dst := refs, scratch[:len(refs)]
	for d := 0; d < 12; d++ {
		hi, shift := d >= 8, uint(8*(d%8))
		if byte(differ[d/8]>>shift) == 0 {
			continue
		}
		var next [256]uint32
		for i := range src {
			next[byte(radixWord(&src[i], hi)>>shift)]++
		}
		sum := uint32(0)
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for i := range src {
			b := byte(radixWord(&src[i], hi) >> shift)
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < len(src); {
		first := &src[lo]
		ambiguous := !prefixHoldsKeys(first.klen)
		hi := lo + 1
		for ; hi < len(src) && src[hi].prefix == first.prefix && src[hi].part == first.part; hi++ {
			if src[hi].klen != first.klen {
				ambiguous = true
			}
		}
		if ambiguous && hi-lo > 1 {
			slices.SortFunc(src[lo:hi], func(x, y pairRef) int {
				if c := bytes.Compare(x.key(data), y.key(data)); c != 0 {
					return c
				}
				if x.src != y.src {
					return cmp.Compare(x.src, y.src)
				}
				return cmp.Compare(x.off, y.off)
			})
		}
		lo = hi
	}
	return src, dst
}

// radixWord is the word holding a radix digit: the prefix for the low eight
// bytes, the partition for the high four.
func radixWord(r *pairRef, hi bool) uint64 {
	if hi {
		return uint64(r.part)
	}
	return r.prefix
}

func (r *pairRef) key(data [][]byte) []byte {
	return data[r.src][r.off : r.off+int(r.klen)]
}

func (r *pairRef) value(data [][]byte) []byte {
	v := r.off + int(r.klen)
	return data[r.src][v : v+int(r.vlen)]
}

// The record path's arrays are recycled: a pair buffer, its index, the
// sort scratch and a reducer's merge index have the same shape from one task
// to the next, and allocating them fresh (zeroed) for every task was most of
// what a shuffle allocated. Each array has one owner at a time, which
// returns it here when it is done with it (DESIGN.md "Record path").
var (
	dataPool slicePool[byte]
	refsPool slicePool[pairRef]
)

// slicePool recycles the backing arrays of one element type by size
// class: class c holds arrays whose capacity is in [2^c, 2^(c+1)). Every
// array of the class a request starts at is large enough for it, so an
// array is never dropped for being too small, and pair buffers, sort
// scratch and merge indexes of very different sizes share one pool without
// crowding each other out.
type slicePool[E any] struct {
	classes [poolClasses]sync.Pool
	top     atomic.Int32 // the highest class an array was ever put in
}

const poolClasses = 48

// get returns an empty slice with room for n elements: an array of the
// smallest class on offer that holds n, a fresh one if none does. n = 0
// asks for a buffer that grows as it fills, and gets the largest array on
// offer.
func (sp *slicePool[E]) get(n int) []E {
	top := int(sp.top.Load())
	if n == 0 {
		for c := top; c >= 0; c-- {
			if s, _ := sp.classes[c].Get().(*[]E); s != nil {
				return (*s)[:0]
			}
		}
		return nil
	}
	for c := bits.Len(uint(n - 1)); c <= top; c++ {
		if s, _ := sp.classes[c].Get().(*[]E); s != nil {
			return (*s)[:0]
		}
	}
	return make([]E, 0, n)
}

// put recycles s's array. The caller gives up every reference into it.
func (sp *slicePool[E]) put(s []E) {
	if cap(s) == 0 {
		return
	}
	c := min(bits.Len(uint(cap(s)))-1, poolClasses-1)
	for top := sp.top.Load(); int32(c) > top && !sp.top.CompareAndSwap(top, int32(c)); top = sp.top.Load() {
	}
	s = s[:0]
	sp.classes[c].Put(&s)
}

// sortPooled sorts refs (see sortRefs) with scratch from the pool, to which
// it returns whichever array the sort did not end in.
func sortPooled(refs []pairRef, data [][]byte) []pairRef {
	sorted, spare := sortRefs(refs, refsPool.get(len(refs))[:len(refs)], data)
	refsPool.put(spare)
	return sorted
}

// pairBuffer is a sequence of serialised pairs and their index.
type pairBuffer struct {
	data []byte
	refs []pairRef
}

func newPairBuffer() pairBuffer {
	return pairBuffer{data: dataPool.get(0), refs: refsPool.get(0)}
}

// release returns the buffer's arrays to the pools.
func (b *pairBuffer) release() {
	dataPool.put(b.data)
	refsPool.put(b.refs)
	*b = pairBuffer{}
}

// pairHeadroom is the free space add makes sure of before it serialises a
// pair; a pair larger than that grows the buffer by append's own rule.
const pairHeadroom = 256

// add serialises one pair at the end of the buffer and returns its size in
// bytes (key plus value, the unit of every spill and shuffle charge): k's
// encoding, then the value's, which is v's or, when encoded is not nil,
// encoded's parts laid end to end. Where the recycled arrays are too small,
// the buffer and the index grow by doubling: append grows a large slice by a
// quarter, which for the buffer of a map task is twice the copies.
func (b *pairBuffer) add(part int, k, v records.Record, encoded [][]byte) int {
	b.data = growDoubling(b.data, pairHeadroom)
	b.refs = growDoubling(b.refs, 1)
	off := len(b.data)
	b.data = records.AppendRecord(b.data, k)
	klen := len(b.data) - off
	if encoded == nil {
		b.data = records.AppendRecord(b.data, v)
	}
	for _, p := range encoded {
		b.data = append(b.data, p...)
	}
	vlen := len(b.data) - off - klen
	b.refs = append(b.refs, pairRef{
		prefix: keyPrefix(b.data[off : off+klen]),
		off:    off, klen: uint32(klen), vlen: uint32(vlen), part: uint32(part),
	})
	return klen + vlen
}

// growDoubling makes room for n more elements, at least doubling the
// capacity when it has to grow.
func growDoubling[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make(S, len(s), max(2*cap(s), len(s)+n))
	copy(grown, s)
	return grown
}

func (b *pairBuffer) sort() { b.refs = sortPooled(b.refs, [][]byte{b.data}) }

// pairRun is one sorted run of pairs: a partition of one map task's output.
type pairRun struct {
	data []byte
	refs []pairRef
}

// mapOutput is the sorted, combined output of one map task, resident on the
// local disk of the node that ran it. Its buffer goes back to the pools when
// the job that published it ends (jobRun.releaseOutputs).
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
// Collect and CollectEncodedValue serialize immediately and retain nothing,
// so mappers and map runners may reuse key/value records (and their backing
// value slices) and value bytes across calls. The threads of a
// multi-threaded runner share it.
type mapCollector struct {
	mu          sync.Mutex
	pairs       pairBuffer
	partBytes   []int64
	partitioner Partitioner
	tally       *tally
}

func newMapCollector(numParts int, p Partitioner, t *tally) *mapCollector {
	return &mapCollector{pairs: newPairBuffer(), partBytes: make([]int64, numParts), partitioner: p, tally: t}
}

func (c *mapCollector) Collect(k, v records.Record) error { return c.collect(k, v, nil) }

// CollectEncodedValue implements EncodedValueCollector.
func (c *mapCollector) CollectEncodedValue(k records.Record, value ...[]byte) error {
	return c.collect(k, records.Record{}, value)
}

// collect is both collects' path: k's partition, then, under the lock, the
// pair's serialisation (pairBuffer.add) and its tally.
func (c *mapCollector) collect(k, v records.Record, encoded [][]byte) error {
	p := c.partitioner(k, len(c.partBytes))
	if p < 0 || p >= len(c.partBytes) {
		return fmt.Errorf("mr: partitioner returned %d of %d", p, len(c.partBytes))
	}
	// Serialization happens here, as in Hadoop's collect path; its cost is
	// real work in the simulation too.
	c.mu.Lock()
	n := int64(c.pairs.add(p, k, v, encoded))
	c.partBytes[p] += n
	c.tally.mapOutput++
	c.tally.mapOutputBytes += n
	c.mu.Unlock()
	return nil
}

// sorted sorts what was collected and cuts it into per-partition runs. The
// output takes over the collector's buffer.
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
	// of it. The combiner keeps nothing of its input past Reduce, so the
	// first buffer is free once it has run.
	defer out.pairs.release()
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

// mergedRuns is a finished merge of sorted runs: refs holds what is left of
// their pairs in order, ref.src naming the run each comes from. Pairs come
// out in key-byte order; equal keys in run order (the order the runs were
// given in: map-task order at a reducer) and, within a run, in the order the
// run holds them (emit order).
type mergedRuns struct {
	data [][]byte // per run, its buffer
	refs []pairRef
	own  []pairRef // the pooled index refs is cut from; nil when refs is a run's own
}

// release returns the merge's index to the pool. A reduce attempt defers
// it; refs must not be read after.
func (m *mergedRuns) release() {
	refsPool.put(m.own)
	m.own, m.refs = nil, nil
}

// mergeRuns orders the runs' entries with the map side's radix sort. The
// entries go in run by run, so the sort's stability breaks ties as a merge
// of run heads would: by run number, then position in the run. The bytes
// stay where they are; the entries are copied into a pooled index. A single
// run is already in order and is taken as it is.
func mergeRuns(runs []pairRun) *mergedRuns {
	data := make([][]byte, len(runs))
	n := 0
	for i := range runs {
		data[i] = runs[i].data
		n += len(runs[i].refs)
	}
	if len(runs) == 1 {
		return &mergedRuns{data: data, refs: runs[0].refs}
	}
	refs := refsPool.get(n)
	for i := range runs {
		for _, r := range runs[i].refs {
			r.src = uint32(i)
			refs = append(refs, r)
		}
	}
	sorted := sortPooled(refs, data)
	return &mergedRuns{data: data, refs: sorted, own: sorted}
}

// pop takes the next pair and returns its serialised value.
func (m *mergedRuns) pop() []byte {
	v := m.refs[0].value(m.data)
	m.refs = m.refs[1:]
	return v
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
	for len(m.refs) > 0 {
		h := &m.refs[0]
		vals.key, vals.prefix, vals.done = h.key(m.data), h.prefix, false
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

// groupValues hands out the serialized values of one group, decoded (Next)
// or as they are (NextEncoded), taking pairs off the merge while their key
// is the group's.
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
	if len(s.m.refs) == 0 || !s.sameKey(&s.m.refs[0]) {
		s.done = true
		return false
	}
	return true
}

// sameKey reports whether r's key is the group's. Keys of one prefix and one
// length of at most eight bytes are equal without a look at their bytes.
func (s *groupValues) sameKey(r *pairRef) bool {
	if r.prefix != s.prefix || int(r.klen) != len(s.key) {
		return false
	}
	return prefixHoldsKeys(r.klen) || bytes.Equal(r.key(s.m.data), s.key)
}

func (s *groupValues) NextEncoded() ([]byte, bool) {
	if s.err != nil || !s.more() {
		return nil, false
	}
	return s.m.pop(), true
}

func (s *groupValues) Next() (records.Record, bool) {
	v, ok := s.NextEncoded()
	if !ok {
		return records.Record{}, false
	}
	s.val, _, s.err = records.DecodeRecordInto(s.val.Values(), v, s.schema)
	if s.err != nil {
		return records.Record{}, false
	}
	return s.val, true
}
