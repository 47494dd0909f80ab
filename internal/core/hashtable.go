package core

import (
	"errors"
	"fmt"
	"sync"
	"weak"

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

	// cols lists the columns of the dimension the build opened, in schema
	// order: what a node handed this table's arrays opens on its own copy.
	cols []int

	// sides holds the table's code→arena-offset side tables, one per
	// fact-column dictionary it was probed with (CodeSideTable). Every
	// handle share gives out has the same sides, so a side table is built
	// once per engine table and dictionary, whichever node, job or query
	// probes first. They are the one mutation after finalize; the table
	// proper stays read-only, so concurrent probes remain safe. Not charged
	// to MemBytes: a side table is at most 4 entries/KB of the probe loop's
	// working set.
	sides *sideTables
}

// sideTables is a table's side tables by dictionary descriptor (a fact
// column file's, one per memoized open). The descriptor is held weakly, so
// no side table keeps its column file's dictionary alive: once the file is
// dropped, with its partition, the next insert deletes its entry.
type sideTables struct {
	mu sync.Mutex
	m  map[weak.Pointer[records.ColumnDict]]*sideTable
}

// sideTable is one translation: offs[code] is the arena offset of the
// dimension entry whose key is the dictionary's code-th value, or -1 when
// that key misses the table. once makes racing first probes build one.
type sideTable struct {
	once sync.Once
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
	sides := &sideTables{m: make(map[weak.Pointer[records.ColumnDict]]*sideTable)}
	h := &DimHashTable{Table: table, auxWidth: auxWidth, sides: sides}
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

// Each calls fn for every entry, in slot order: one call per key, with the
// aux values the build kept for it (nil for tables with no aux columns).
// aux aliases the arena and must not be modified.
func (h *DimHashTable) Each(fn func(key int64, aux []records.Value)) {
	for i, t := range h.tags {
		if t != tagEmpty {
			fn(h.slots[i].key, h.AuxAt(h.slots[i].off))
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
// (table, dictionary descriptor) — at most dictionary-size hash probes,
// amortized over every block, reader and query reading that column file —
// and built reports whether this call did the build (for counters).
// Returns nil for non-integer dictionaries.
func (h *DimHashTable) CodeSideTable(dict *records.ColumnDict) (offs []int32, built bool) {
	if dict == nil || dict.Ints == nil {
		return nil, false
	}
	st := h.sides.of(dict)
	st.once.Do(func() {
		st.offs = make([]int32, len(dict.Ints))
		for c, k := range dict.Ints {
			if off, hit := h.ProbeOffset(k); hit {
				st.offs[c] = off
			} else {
				st.offs[c] = -1
			}
		}
		built = true
	})
	return st.offs, built
}

// of returns dict's entry, inserting an unbuilt one on a miss after
// deleting the entries whose dictionaries are gone.
func (s *sideTables) of(dict *records.ColumnDict) *sideTable {
	key := weak.Make(dict)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.m[key]; st != nil {
		return st
	}
	for k := range s.m {
		if k.Value() == nil {
			delete(s.m, k)
		}
	}
	st := &sideTable{}
	s.m[key] = st
	return st
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
// build gives up. It shares nothing: an engine's nodes build through its
// memo of built tables instead (nodeBuild).
func BuildDimHashTable(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, spec *DimSpec) (*DimHashTable, error) {
	return nodeBuild(fs, node, dimDir, spec, nil)
}

// nodeBuild is a node's build of spec's table from its local copy, taking
// the table from built (an engine's memo; nil builds afresh) when the memo
// has it: the copy is read, checked and charged all the same.
func nodeBuild(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, spec *DimSpec, built *tableMemo) (*DimHashTable, error) {
	version := spec.Version
	if version == 0 {
		version = colstore.RowTableVersion(fs, dimDir)
	}
	h, err := buildFromCopy(fs, node, dimDir, version, spec, built)
	if !errors.Is(err, colstore.ErrBadColumnSet) {
		return h, err
	}
	node.DropLocal(dimCacheKey(dimDir, version))
	if h, err = buildFromCopy(fs, node, dimDir, version, spec, built); errors.Is(err, colstore.ErrBadColumnSet) {
		return nil, fmt.Errorf("core: dim %s: local copy on %s unusable after a re-copy: %w", spec.Table, node.ID(), err)
	}
	return h, err
}

func buildFromCopy(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, version uint64, spec *DimSpec, built *tableMemo) (*DimHashTable, error) {
	set, err := localDim(fs, node, dimDir, version, spec.Schema)
	if err != nil {
		return nil, err
	}
	var h *DimHashTable
	if built == nil {
		h, err = buildDimTable(spec, set)
	} else {
		h, err = tableFrom(built, dimDir, version, spec, set)
	}
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

// tableMemo is an engine's memo of the dimension tables it built
// (Engine.built): one sharedTable per (dimension directory, version,
// schema, build spec), at each dimension's newest version only.
type tableMemo = colstore.VersionMemo[*sharedTable]

// sharedTable is the one table an engine builds for its key: built once,
// from the driver's column image or a node's local copy, whichever asks
// first, and handed to every build after it as a handle of its own.
type sharedTable struct {
	mu sync.Mutex
	h  *DimHashTable // nil until a build succeeds; a failed one is not kept
}

// tableFrom returns spec's table over set, a column set of that version of
// the dimension at dir, through the memo: the key's one build, or on a hit
// that table, once set is checked to be what it was built from — every
// column the build read is opened, so its CRC is checked, and the bytes
// come to what the build read. A set that is not builds a table of its
// own, which the memo does not keep. Builds racing on a key make one.
func tableFrom(memo *tableMemo, dir string, version uint64, spec *DimSpec, set *colstore.ColumnSet) (*DimHashTable, error) {
	st := memo.LoadOrStore(dir, version, builtKey(spec), &sharedTable{})
	st.mu.Lock()
	h := st.h
	if h == nil {
		var err error
		if h, err = buildDimTable(spec, set); err == nil {
			st.h = h
		}
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return h.share(), nil
	}
	st.mu.Unlock()
	bytes := set.DirBytes()
	for _, ix := range h.cols {
		col, err := set.Column(ix)
		if err != nil {
			return nil, err
		}
		bytes += col.Bytes()
	}
	if bytes != h.Stats.BytesRead || int64(set.Rows()) != h.Stats.RowsScanned {
		return buildDimTable(spec, set)
	}
	return h.share(), nil
}

// builtKey is spec's key in a tableMemo within one version of a dimension:
// its fingerprint, which leaves the schema out, and the schema, so two
// schemas never share a table.
func builtKey(spec *DimSpec) string {
	return spec.Schema.String() + "\x00" + spec.Fingerprint()
}

// share returns a handle on the table's arrays and side tables: what each
// build a memoized table serves gets, so a side table is made once per
// memo entry and dictionary and lives no longer than either.
func (h *DimHashTable) share() *DimHashTable {
	c := *h
	return &c
}

// buildDimTable builds spec's table from a column set of the dimension, and
// charges nothing. It is the one place a DimHashTable is made: an engine
// once per key of its memo (tableFrom), from the column image of the
// version a query pinned (Engine.dimScanFor) or a node's local copy; an
// engine-less node build from its copy (BuildDimHashTable); an estimate or
// the Hive baseline's broadcast table from the caller's rows
// (BuildDimTables).
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
	h.cols = make([]int, 0, len(b.cols))
	for ix, col := range b.cols {
		if col != nil {
			h.cols = append(h.cols, ix)
		}
	}
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

// BuildDimTables builds each listed dimension's hash table (one per spec,
// in order) from the rows each(table) supplies, and charges nothing: an
// estimate is a build. The benchmark harness sizes both engines' memory
// constraints from these tables, with the SSB generator as the row source;
// the Hive baseline's mapjoin driver builds its broadcast table here from
// the rows it read off HDFS.
func BuildDimTables(dims []DimSpec, each func(table string, fn func(records.Record) error) error) ([]*DimHashTable, error) {
	out := make([]*DimHashTable, len(dims))
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
		if out[i], err = buildDimTable(d, set); err != nil {
			return nil, err
		}
	}
	return out, nil
}
