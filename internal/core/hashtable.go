package core

import (
	"errors"
	"fmt"
	"sync"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// DimHashTable is the hash table built for one dimension of a star join
// (§4.2): key = dimension primary key, value = the auxiliary columns the
// query references. Rows failing the dimension predicate are not inserted,
// so probing performs the semi-join filter and the projection at once.
//
// The layout is an open-addressing table (power-of-two capacity, linear
// probing) over flat arrays: keys and arena offsets live in parallel slices
// and the aux values of all entries share one arena, auxWidth values per
// entry. Compared to a Go map[int64][]Value this removes the per-entry
// slice allocation, keeps probes on contiguous memory, and makes the
// resident size directly measurable. After the build completes the table is
// read-only and safe for concurrent probes by all of a node's threads.
type DimHashTable struct {
	Table string

	slots []dimSlot // power-of-two sized
	// tags mirrors slots: 0 = empty, else 0x80 | top bits of the key hash.
	// Probes scan tags first, so misses resolve on dense byte reads and
	// slot cache lines are touched only on a tag match.
	tags []uint8
	// arena holds every entry's aux values back to back, auxWidth per
	// entry. Probe returns a subslice, so entries are never copied out.
	arena    []records.Value
	auxWidth int
	mask     uint64
	n        int

	// MemBytes is the table's resident size for node memory accounting,
	// computed from the actual slot array and arena by finalize.
	MemBytes int64

	// Stats is what the build read from the node-local dimension copy.
	Stats DimBuildStats

	// sideTables caches code→arena-offset translations per fact-column
	// dictionary (keyed by dictionary fingerprint). They are the one
	// mutation after finalize, guarded by sideMu; the table proper stays
	// read-only, so concurrent probes remain safe. Not charged to MemBytes:
	// a side table is at most 4 entries/KB of the probe loop's working set
	// and exists only while the query runs.
	sideMu     sync.Mutex
	sideTables map[uint64]*sideTable
}

// sideTable is one cached translation: offs[code] is the arena offset of
// the dimension entry whose key is the dictionary's code-th value, or -1
// when that key misses the table. dict is retained to verify entries on a
// fingerprint collision.
type sideTable struct {
	dict *records.ColumnDict
	offs []int32
}

// dimSlot interleaves key and arena offset so a probe step touches one
// cache line, not two parallel arrays.
type dimSlot struct {
	key int64
	off int32
}

// Tag values: an occupied slot's tag always has the high bit set, so 0
// unambiguously means empty (keys may legitimately be zero or negative,
// which is why the sentinel lives outside the key array).
const (
	tagEmpty    = uint8(0)
	tagOccupied = uint8(0x80)
)

// DimBuildStats accounts one BuildDimHashTable: the rows of the dimension
// copy, the rows that passed the predicate (duplicate keys counted, so it
// can exceed Len), and the bytes read — the copy's directory plus the
// payloads of the columns the build opened.
type DimBuildStats struct {
	RowsScanned int64
	RowsKept    int64
	BytesRead   int64
}

// newDimHashTable returns an empty table whose slot array holds the given
// number of entries without growing.
func newDimHashTable(table string, auxWidth, entries int) *DimHashTable {
	h := &DimHashTable{Table: table, auxWidth: auxWidth}
	h.alloc(int(dimTableCapacity(int64(entries))))
	return h
}

func (h *DimHashTable) alloc(capacity int) {
	h.slots = make([]dimSlot, capacity)
	h.tags = make([]uint8, capacity)
	h.mask = uint64(capacity - 1)
}

// mix64 is a splitmix64-style finalizer: full-avalanche, so sequential
// dimension keys spread across the slot array instead of clustering.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of qualifying dimension rows.
func (h *DimHashTable) Len() int { return h.n }

// Probe looks up a foreign key; aux is nil for dimensions with no
// auxiliary columns. The returned slice aliases the table's arena and must
// not be modified.
func (h *DimHashTable) Probe(fk int64) (aux []records.Value, ok bool) {
	tags := h.tags
	// mask recomputed from len(tags) so the compiler can prove i&mask is
	// in bounds and drop the bounds check in the loop.
	mask := uint64(len(tags) - 1)
	hv := mix64(uint64(fk))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & mask; ; i = (i + 1) & mask {
		t := tags[i]
		if t == tagEmpty {
			return nil, false
		}
		if t != tag {
			continue
		}
		if s := h.slots[i]; s.key == fk {
			if h.auxWidth == 0 {
				return nil, true
			}
			end := s.off + int32(h.auxWidth)
			return h.arena[s.off:end:end], true
		}
	}
}

// ProbeOffset looks up a foreign key and returns its arena offset (0 for
// tables with no aux columns) instead of the aux slice — the form side
// tables store.
func (h *DimHashTable) ProbeOffset(fk int64) (int32, bool) {
	tags := h.tags
	mask := uint64(len(tags) - 1)
	hv := mix64(uint64(fk))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & mask; ; i = (i + 1) & mask {
		t := tags[i]
		if t == tagEmpty {
			return 0, false
		}
		if t != tag {
			continue
		}
		if s := h.slots[i]; s.key == fk {
			return s.off, true
		}
	}
}

// AuxAt returns the aux slice at an arena offset previously obtained from
// ProbeOffset or a side table; nil for tables with no aux columns. The
// slice aliases the arena and must not be modified.
func (h *DimHashTable) AuxAt(off int32) []records.Value {
	if h.auxWidth == 0 {
		return nil
	}
	end := off + int32(h.auxWidth)
	return h.arena[off:end:end]
}

// CodeSideTable returns the code→arena-offset translation for a
// dictionary-encoded fact FK column: offs[code] replaces the hash probe for
// every row carrying that code with one array read. It is built once per
// (table, dictionary) — at most dictionary-size hash probes, amortized over
// every block and partition sharing the dictionary — and cached by the
// dictionary fingerprint; built reports whether this call did the build
// (for counters). Returns nil for non-integer dictionaries.
func (h *DimHashTable) CodeSideTable(dict *records.ColumnDict) (offs []int32, built bool) {
	if dict == nil || dict.Ints == nil {
		return nil, false
	}
	h.sideMu.Lock()
	st, ok := h.sideTables[dict.ID]
	h.sideMu.Unlock()
	if ok && (st.dict == dict || sameIntDict(st.dict.Ints, dict.Ints)) {
		return st.offs, false
	}
	offs = make([]int32, len(dict.Ints))
	for c, k := range dict.Ints {
		if off, hit := h.ProbeOffset(k); hit {
			offs[c] = off
		} else {
			offs[c] = -1
		}
	}
	h.sideMu.Lock()
	if h.sideTables == nil {
		h.sideTables = make(map[uint64]*sideTable)
	}
	h.sideTables[dict.ID] = &sideTable{dict: dict, offs: offs}
	h.sideMu.Unlock()
	return offs, true
}

func sameIntDict(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insertKey claims a slot for k during the build and returns the arena
// offset of its aux values: the next free span for a new key, the existing
// one for a duplicate (whose values the caller overwrites: last write wins,
// matching map semantics). The slot array must have a free slot.
func (h *DimHashTable) insertKey(k int64) int32 {
	hv := mix64(uint64(k))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & h.mask; ; i = (i + 1) & h.mask {
		s := &h.slots[i]
		if h.tags[i] == tagEmpty {
			h.tags[i] = tag
			s.key = k
			s.off = int32(h.n * h.auxWidth)
			h.n++
			return s.off
		}
		if h.tags[i] == tag && s.key == k {
			return s.off
		}
	}
}

// rehash moves the entries to a slot array of the given capacity. Arena
// offsets are untouched — only the key→slot mapping moves.
func (h *DimHashTable) rehash(capacity int) {
	oldSlots, oldTags := h.slots, h.tags
	h.alloc(capacity)
	for j, t := range oldTags {
		if t == tagEmpty {
			continue
		}
		i := mix64(uint64(oldSlots[j].key)) & h.mask
		for h.tags[i] != tagEmpty {
			i = (i + 1) & h.mask
		}
		h.tags[i] = t
		h.slots[i] = oldSlots[j]
	}
}

// finalize computes MemBytes from the actual backing arrays: the slot and
// tag arrays plus the arena values, including string payloads.
func (h *DimHashTable) finalize() {
	h.MemBytes = int64(len(h.slots))*16 + int64(len(h.tags))
	for i := range h.arena {
		h.MemBytes += h.arena[i].MemSize()
	}
}

// BuildDimHashTable builds the hash table for one dimension spec from the
// node-local dimension copy (charging the local read of what it decodes —
// this is the §6.3 "build" phase that runs once per node). The build is
// single-threaded, as in the paper, and projected: it opens only the
// predicate's columns, the key and the aux columns, and materializes the
// latter two for qualifying rows alone. It reads the version of the table
// the spec names, the current one when the spec names none. A copy that
// fails its checks is dropped and re-copied from HDFS once (§4) before the
// build gives up.
func BuildDimHashTable(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, spec *DimSpec) (*DimHashTable, error) {
	version := spec.Version
	if version == 0 {
		version = colstore.RowTableVersion(fs, dimDir)
	}
	h, err := buildDimHashTable(fs, node, dimDir, version, spec)
	if !errors.Is(err, colstore.ErrBadColumnSet) {
		return h, err
	}
	node.DropLocal(dimCacheKey(dimDir, version))
	if h, err = buildDimHashTable(fs, node, dimDir, version, spec); errors.Is(err, colstore.ErrBadColumnSet) {
		return nil, fmt.Errorf("core: dim %s: local copy on %s unusable after a re-copy: %w", spec.Table, node.ID(), err)
	}
	return h, err
}

func buildDimHashTable(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, version uint64, spec *DimSpec) (*DimHashTable, error) {
	set, err := localDim(fs, node, dimDir, version, spec.Schema)
	if err != nil {
		return nil, err
	}
	h, err := buildDimTable(spec, set)
	if err != nil {
		return nil, err
	}
	// The local dimension copy reads at nominal device speed: at the
	// paper's scale it is page-cache-resident between tasks.
	if err := node.ChargeDiskReadNominal(h.Stats.BytesRead); err != nil {
		return nil, err
	}
	return h, nil
}

// buildDimTable builds spec's table from a column set of the dimension, and
// charges nothing. It is the one place a DimHashTable is made: a node builds
// from its local copy (BuildDimHashTable), the driver from the column image
// of the version a query pinned (Engine.dimScanFor), an estimate from the
// caller's rows (EstimateDimHashBytes).
func buildDimTable(spec *DimSpec, set *colstore.ColumnSet) (*DimHashTable, error) {
	schema := spec.Schema
	pkIx := schema.Index(spec.DimPK)
	if pkIx < 0 {
		return nil, fmt.Errorf("core: dim %s has no column %s", spec.Table, spec.DimPK)
	}
	if schema.Field(pkIx).Kind != records.KindInt64 {
		return nil, fmt.Errorf("core: dim %s key %s is %s, want int64", spec.Table, spec.DimPK, schema.Field(pkIx).Kind)
	}
	auxIx := make([]int, len(spec.Aux))
	for i, a := range spec.Aux {
		auxIx[i] = schema.MustIndex(a)
	}
	b := &dimBuild{
		spec:  spec,
		set:   set,
		cols:  make([]*colstore.ColumnReader, schema.Len()),
		codes: make([][]uint32, schema.Len()),
		bytes: set.DirBytes(),
	}

	// Selection first: the table is allocated once, at the capacity the
	// kept rows need, and nothing else is decoded for a row that fails.
	sel, kept, err := b.selectRows()
	if err != nil {
		return nil, err
	}
	h := newDimHashTable(spec.Table, len(auxIx), kept)
	pk, err := b.column(pkIx)
	if err != nil {
		return nil, err
	}
	if pk.Boxed() {
		return nil, fmt.Errorf("core: dim %s key %s holds values that are not int64", spec.Table, spec.DimPK)
	}
	keys := &records.ColumnVector{Kind: records.KindInt64, Ints: make([]int64, 0, kept)}
	if err := pk.Decode(keys, sel); err != nil {
		return nil, err
	}
	// offs[j] is where the j-th kept row's aux values go; rows sharing a key
	// share a span, and filling in row order leaves the last one's values.
	var offs []int32
	if len(auxIx) > 0 {
		offs = make([]int32, kept)
	}
	for j, k := range keys.Ints {
		off := h.insertKey(k)
		if offs != nil {
			offs[j] = off
		}
	}
	if c := int(dimTableCapacity(int64(h.n))); c < len(h.slots) {
		h.rehash(c) // duplicate keys: fewer entries than kept rows
	}
	h.arena = make([]records.Value, h.n*len(auxIx))
	var vals []records.Value
	for a, ix := range auxIx {
		col, err := b.column(ix)
		if err != nil {
			return nil, err
		}
		if dict := col.Dict(); dict != nil {
			// One boxed value per dictionary entry, shared by every row
			// carrying its code: no per-row string.
			codes, err := b.colCodes(ix)
			if err != nil {
				return nil, err
			}
			j := 0
			for r, code := range codes {
				if sel == nil || sel[r] {
					h.arena[int(offs[j])+a] = dict[code]
					j++
				}
			}
			continue
		}
		if vals, err = col.Values(vals[:0], sel); err != nil {
			return nil, err
		}
		for j, v := range vals {
			h.arena[int(offs[j])+a] = v
		}
	}
	h.finalize()
	h.Stats = DimBuildStats{RowsScanned: int64(set.Rows()), RowsKept: int64(kept), BytesRead: b.bytes}
	return h, nil
}

// dimBuild is the state of one build over a dimension's column set: the
// columns opened so far (each read, and charged, once however many roles it
// plays) and their dictionary codes.
type dimBuild struct {
	spec  *DimSpec
	set   *colstore.ColumnSet
	cols  []*colstore.ColumnReader
	codes [][]uint32
	bytes int64
}

func (b *dimBuild) column(ix int) (*colstore.ColumnReader, error) {
	if b.cols[ix] == nil {
		col, err := b.set.Column(ix)
		if err != nil {
			return nil, err
		}
		b.cols[ix] = col
		b.bytes += col.Bytes()
	}
	return b.cols[ix], nil
}

func (b *dimBuild) colCodes(ix int) ([]uint32, error) {
	if b.codes[ix] == nil {
		codes, err := b.cols[ix].Codes(make([]uint32, 0, b.set.Rows()))
		if err != nil {
			return nil, err
		}
		b.codes[ix] = codes
	}
	return b.codes[ix], nil
}

// selectRows evaluates the spec's predicate over the copy and returns the
// selection (nil when there is no predicate: every row) and its size. A
// conjunct reading one dictionary-encoded column is decided once per
// dictionary entry and applied to the codes; the rest run as one block
// predicate over the columns they read.
func (b *dimBuild) selectRows() ([]bool, int, error) {
	n := b.set.Rows()
	if b.spec.Pred == nil {
		return nil, n, nil
	}
	schema := b.spec.Schema
	sel := make([]bool, n)
	for r := range sel {
		sel[r] = true
	}
	var residual []expr.Pred
	for _, c := range expr.Conjuncts(b.spec.Pred) {
		name, single := expr.SingleColumn(c)
		ix := -1
		if single {
			ix = schema.Index(name)
		}
		if ix < 0 {
			residual = append(residual, c)
			continue
		}
		col, err := b.column(ix)
		if err != nil {
			return nil, 0, err
		}
		dict := col.Dict()
		if dict == nil {
			residual = append(residual, c)
			continue
		}
		holds, err := expr.CompileValuePred(c, name, schema.Field(ix).Kind)
		if err != nil {
			return nil, 0, fmt.Errorf("core: dim %s predicate: %w", b.spec.Table, err)
		}
		keep := make([]bool, len(dict))
		for e, v := range dict {
			keep[e] = holds(v)
		}
		codes, err := b.colCodes(ix)
		if err != nil {
			return nil, 0, err
		}
		for r, code := range codes {
			if !keep[code] {
				sel[r] = false
			}
		}
	}
	if len(residual) > 0 {
		if err := b.applyResidual(expr.And(residual...), sel); err != nil {
			return nil, 0, err
		}
	}
	kept := 0
	for _, s := range sel {
		if s {
			kept++
		}
	}
	return sel, kept, nil
}

// applyResidual clears sel where pred fails, reading only pred's columns:
// as typed vectors under a block predicate, or — when one of them holds
// nulls, which a vector cannot carry — boxed, under the row predicate.
func (b *dimBuild) applyResidual(pred expr.Pred, sel []bool) error {
	schema := b.spec.Schema
	names := expr.ColumnsOf(nil, []expr.Pred{pred})
	fields := make([]records.Field, len(names))
	cols := make([]*colstore.ColumnReader, len(names))
	boxed := false
	for j, name := range names {
		ix := schema.Index(name)
		if ix < 0 {
			return fmt.Errorf("core: dim %s predicate: unknown column %q in %v", b.spec.Table, name, schema)
		}
		col, err := b.column(ix)
		if err != nil {
			return err
		}
		fields[j], cols[j] = schema.Field(ix), col
		boxed = boxed || col.Boxed()
	}
	sub := records.NewSchema(fields...)
	if !boxed {
		holds, err := expr.CompileBlockPred(pred, sub)
		if err != nil {
			return fmt.Errorf("core: dim %s predicate: %w", b.spec.Table, err)
		}
		block := records.NewRowBlock(sub, len(sel))
		for j, col := range cols {
			if err := col.Decode(block.Col(j), nil); err != nil {
				return err
			}
		}
		block.SetLen(len(sel))
		for r := range sel {
			if sel[r] && !holds(block, r) {
				sel[r] = false
			}
		}
		return nil
	}
	holds, err := expr.CompilePred(pred, sub)
	if err != nil {
		return fmt.Errorf("core: dim %s predicate: %w", b.spec.Table, err)
	}
	vals := make([][]records.Value, len(cols))
	for j, col := range cols {
		if vals[j], err = col.Values(make([]records.Value, 0, len(sel)), nil); err != nil {
			return err
		}
	}
	row := make([]records.Value, len(cols))
	rec := records.Make(sub, row...) // wraps row: refilled per dimension row
	for r := range sel {
		if !sel[r] {
			continue
		}
		for j := range row {
			row[j] = vals[j][r]
		}
		if !holds(rec) {
			sel[r] = false
		}
	}
	return nil
}

// dimTableCapacity returns the slot-array capacity the open-addressing
// table ends up with after inserting n entries: the smallest power of two
// (at least 16) whose 0.7 load threshold admits n.
func dimTableCapacity(n int64) int64 {
	c := int64(16)
	for c*7/10 < n {
		c *= 2
	}
	return c
}

// EstimateDimHashBytes returns the MemBytes of each listed dimension's hash
// table (one entry per spec, in order), built from the rows each(table)
// supplies: an estimate is a build. The benchmark harness uses it (with the
// SSB generator as the row source, so no I/O is charged) to size the
// Clydesdale residency constraint: a node holds the *sum* of the query's
// tables (§6.4). Mapjoin budgets use the boxed-map model in package hive
// instead.
func EstimateDimHashBytes(dims []DimSpec, each func(table string, fn func(records.Record) error) error) ([]int64, error) {
	out := make([]int64, len(dims))
	for i := range dims {
		d := &dims[i]
		img, err := colstore.EncodeRows(d.Schema, func(fn func(records.Record) error) error {
			return each(d.Table, fn)
		})
		if err != nil {
			return nil, err
		}
		set, err := colstore.OpenColumnSet(img, d.Schema)
		if err != nil {
			return nil, err
		}
		h, err := buildDimTable(d, set)
		if err != nil {
			return nil, err
		}
		out[i] = h.MemBytes
	}
	return out, nil
}
