package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// CIF layout: a table directory contains horizontal partitions, each a
// directory holding one file per column:
//
//	<dir>/_schema
//	<dir>/p-00000/<column>.col
//	<dir>/p-00000/_stats
//	<dir>/p-00001/<column>.col ...
//
// A column file is the magic "CCF2", a uvarint row count, one Encoding byte,
// the encoded payload (see encoding.go: a plain stream, bit-packed dictionary
// codes or frame-of-reference integers) and a trailing CRC-32 (IEEE) of
// everything before it — the checksum HDFS keeps per block, letting readers
// detect corrupted replicas. Beside the column files the writer emits a
// per-partition "_stats" zone-map sidecar (see stats.go).
// openColumnFile is the one place a column file is taken apart: checksum
// first, then the row count, bounded by the payload's length before anything
// is sized by it, then the payload's own consistency checks.
// The table prefix is registered with the co-locating placement policy so
// all the column files of a partition replicate to the same nodes, keeping
// column-pruned scans data-local (§4.1).

const cifMagic = "CCF2"

// Two-phase partition publication. A partition directory is written column
// file by column file, so a crashed or failed writer leaves a half-written
// directory behind; without a commit point every later ListPartitions would
// pick the debris up. The protocol:
//
//	phase 1: write <pdir>/<column>.col files and the _stats sidecar;
//	phase 2: write <pdir>/_committed — one small file, created atomically.
//
// ListPartitions returns only committed partitions, so readers never see a
// partition whose phase 2 did not run.

// CommitMarkerName is the per-partition commit record; a partition without
// it is invisible to ListPartitions.
const CommitMarkerName = "_committed"

// commitPartition writes a partition's commit marker (phase 2). Idempotent:
// re-committing a committed partition is a no-op.
func commitPartition(fs *hdfs.FileSystem, pdir string) error {
	path := pdir + "/" + CommitMarkerName
	if fs.Exists(path) {
		return nil
	}
	return fs.WriteFile(path, "", []byte{'c'})
}

// Scan counters surfaced in job reports. The pruning set is charged by
// CIFInput.Splits on the driver; the row set by readers on task nodes.
const (
	// CtrPartitionsPruned counts partitions dropped by zone maps pre-schedule.
	CtrPartitionsPruned = "scan.partitions_pruned"
	// CtrPartitionsScanned counts partitions that became splits.
	CtrPartitionsScanned = "scan.partitions_scanned"
	// CtrBytesSkipped is the projected-column bytes of pruned partitions.
	CtrBytesSkipped = "scan.bytes_skipped"
	// CtrRowsPruned is the row count of pruned partitions (from their stats).
	CtrRowsPruned = "scan.rows_pruned"
	// CtrRowsScanned counts rows decoded or predicate-inspected by readers.
	CtrRowsScanned = "scan.rows_scanned"
	// CtrRowsLateSkipped counts rows whose non-predicate columns were never
	// materialized because the selection vector dropped them.
	CtrRowsLateSkipped = "scan.rows_late_skipped"
	// CtrRowsBloomSkipped counts rows dropped by semi-join key filters
	// (KeyFilters) — rows that satisfied the query predicate but whose FK
	// provably misses the dimension probe. Together the row counters
	// account for every fact row exactly once:
	// probed + late_skipped + bloom_skipped + pruned == total rows.
	CtrRowsBloomSkipped = "scan.rows_bloom_skipped"
	// CtrBlocksSkipped counts blocks in which no row survived selection, so
	// no deferred column was touched: on packed columns such a block costs
	// its eager columns and nothing else.
	CtrBlocksSkipped = "scan.blocks_skipped"
)

// DefaultPartitionRows is the row count per CIF partition when unspecified.
const DefaultPartitionRows = 65536

// CIFWriter writes a table in CIF format.
type CIFWriter struct {
	fs            *hdfs.FileSystem
	dir           string
	schema        *records.Schema
	partitionRows int64
	block         *records.RowBlock
	partition     int
	rows          int64
	closed        bool
	// staged suppresses phase 2: flushed partitions stay uncommitted
	// (invisible to readers) and accumulate in pending until the caller
	// publishes the whole batch atomically — see StagePartitions.
	staged  bool
	pending []string
}

// NewCIFWriter starts a CIF table at dir, installing the co-locating
// placement policy for it. partitionRows <= 0 uses DefaultPartitionRows.
func NewCIFWriter(fs *hdfs.FileSystem, dir string, schema *records.Schema, partitionRows int64) (*CIFWriter, error) {
	if partitionRows <= 0 {
		partitionRows = DefaultPartitionRows
	}
	fs.SetPlacementPolicy(dir+"/", hdfs.ColocatePolicy{})
	if err := WriteSchema(fs, dir, schema); err != nil {
		return nil, err
	}
	return &CIFWriter{
		fs:            fs,
		dir:           dir,
		schema:        schema,
		partitionRows: partitionRows,
		block:         records.NewRowBlock(schema, int(partitionRows)),
	}, nil
}

// Append buffers one record, flushing a partition when full.
func (w *CIFWriter) Append(r records.Record) error {
	if w.closed {
		return fmt.Errorf("colstore: append to closed CIF writer")
	}
	w.block.AppendRow(r)
	w.rows++
	if int64(w.block.Len()) >= w.partitionRows {
		return w.flushPartition()
	}
	return nil
}

func (w *CIFWriter) flushPartition() error {
	if w.block.Len() == 0 {
		return nil
	}
	pdir := fmt.Sprintf("%s/p-%05d", w.dir, w.partition)
	ps := &PartitionStats{Rows: int64(w.block.Len()), Cols: make([]ColStats, w.schema.Len())}
	// The column files and the sidecar go to the filesystem in one call: a
	// roll-in stages its partitions beside running queries, and a write
	// beside readers costs by the number of trips to the namenode.
	files := make([]hdfs.File, 0, w.schema.Len()+1)
	for i := 0; i < w.schema.Len(); i++ {
		col := w.block.Col(i)
		enc, payload, dict := encodeColumn(col)
		ps.Cols[i] = columnStats(w.schema.Field(i).Name, col, dict)
		files = append(files, hdfs.File{Path: fmt.Sprintf("%s/%s.col", pdir, w.schema.Field(i).Name), Data: columnFile(col.Len(), enc, payload)})
	}
	files = append(files, hdfs.File{Path: pdir + "/" + StatsFileName, Data: ps.encode()})
	if err := w.fs.WriteFiles("", files); err != nil {
		return err
	}
	if w.staged {
		w.pending = append(w.pending, pdir)
	} else if err := commitPartition(w.fs, pdir); err != nil {
		return err
	}
	w.partition++
	w.block.Reset()
	return nil
}

// columnFile frames one encoded column as a column file: what every writer
// (load, roll-in, compaction) stores and what the decoder tests and fuzz
// seeds are built with.
func columnFile(rows int, enc Encoding, payload []byte) []byte {
	buf := make([]byte, 0, len(cifMagic)+binary.MaxVarintLen64+1+len(payload)+4)
	buf = append(buf, cifMagic...)
	buf = binary.AppendUvarint(buf, uint64(rows))
	buf = append(buf, byte(enc))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Close flushes the final partition. Rows written so far remain valid; CIF
// supports rolling in more data later by appending new partitions (the
// operational property §2 contrasts with Llama's sorted projections).
func (w *CIFWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.flushPartition()
}

// Rows returns the number of rows appended.
func (w *CIFWriter) Rows() int64 { return w.rows }

// Pending returns the partition directories a staged writer has flushed but
// not committed, in write order. Valid after Close; the registry publishes
// them atomically (Snapshots.RollIn, Compact).
func (w *CIFWriter) Pending() []string { return w.pending }

// DiscardPending deletes a staged writer's uncommitted partitions — the
// cleanup path when a roll-in fails after some partitions flushed. The
// partitions were never visible, so this only reclaims space.
func (w *CIFWriter) DiscardPending() {
	w.closed = true
	for _, pdir := range w.pending {
		w.fs.DeletePrefix(pdir + "/")
	}
	w.pending = nil
}

// AppendPartitions opens an existing CIF table for roll-in: new rows go to
// fresh partitions after the existing ones, without touching old data.
// Each flushed partition commits immediately.
func AppendPartitions(fs *hdfs.FileSystem, dir string, partitionRows int64) (*CIFWriter, error) {
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return nil, err
	}
	return newAppendingCIFWriter(fs, dir, schema, partitionRows)
}

// StagePartitions opens an existing CIF table for staged roll-in: flushed
// partitions stay uncommitted — invisible to every reader — until the
// caller publishes the batch, normally through the registry (Snapshots.RollIn,
// Compact) so the whole batch becomes visible atomically with respect to
// snapshot acquisition.
func StagePartitions(fs *hdfs.FileSystem, dir string, partitionRows int64) (*CIFWriter, error) {
	w, err := AppendPartitions(fs, dir, partitionRows)
	if err != nil {
		return nil, err
	}
	w.staged = true
	return w, nil
}

func newAppendingCIFWriter(fs *hdfs.FileSystem, dir string, schema *records.Schema, partitionRows int64) (*CIFWriter, error) {
	if partitionRows <= 0 {
		partitionRows = DefaultPartitionRows
	}
	// Number after the highest existing index, committed or not: counting
	// visible partitions would collide with uncommitted stages, and reusing
	// indexes freed by retention would resurrect retired names.
	next := 0
	all, _ := scanPartitionDirs(fs, dir)
	for _, p := range all {
		if n, ok := partitionIndex(p); ok && n >= next {
			next = n + 1
		}
	}
	return &CIFWriter{
		fs:            fs,
		dir:           dir,
		schema:        schema,
		partitionRows: partitionRows,
		block:         records.NewRowBlock(schema, int(partitionRows)),
		partition:     next,
	}, nil
}

// WriteCIFTable writes rows into a new CIF table.
func WriteCIFTable(fs *hdfs.FileSystem, dir string, schema *records.Schema, partitionRows int64, rows func(emit func(records.Record) error) error) (int64, error) {
	w, err := NewCIFWriter(fs, dir, schema, partitionRows)
	if err != nil {
		return 0, err
	}
	emit := func(r records.Record) error { return w.Append(r) }
	if err := rows(emit); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Rows(), nil
}

// partitionIndex parses the numeric index out of a "p-<n>" partition
// directory name.
func partitionIndex(pdir string) (int, bool) {
	base := pdir
	if i := strings.LastIndexByte(pdir, '/'); i >= 0 {
		base = pdir[i+1:]
	}
	n, err := strconv.Atoi(strings.TrimPrefix(base, "p-"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// sortPartitionDirs orders partitions by numeric index. "p-%05d" is a
// minimum width, not a fixed one: lexical order breaks at p-100000 (it
// sorts between p-00001 and p-00002). Non-numeric names sort lexically
// after every numeric one.
func sortPartitionDirs(parts []string) {
	sort.Slice(parts, func(i, j int) bool {
		ni, oki := partitionIndex(parts[i])
		nj, okj := partitionIndex(parts[j])
		switch {
		case oki && okj:
			return ni < nj
		case oki != okj:
			return oki
		default:
			return parts[i] < parts[j]
		}
	})
}

// scanPartitionDirs walks a table directory once, returning every partition
// directory (in no order) and the set of those holding a commit marker. The
// files are visited, not listed: every roll-in and every snapshot comes
// through here, and sorting the names of all the table's column files was
// half of what a roll-in into a table of 700 partitions cost.
func scanPartitionDirs(fs *hdfs.FileSystem, dir string) ([]string, map[string]bool) {
	seen := map[string]bool{}
	committed := map[string]bool{}
	var parts []string
	fs.Visit(dir+"/p-", func(p string) {
		rest := p[len(dir)+1:]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return
		}
		pdir := p[:len(dir)+1+slash]
		if !seen[pdir] {
			seen[pdir] = true
			parts = append(parts, pdir)
		}
		if rest[slash+1:] == CommitMarkerName {
			committed[pdir] = true
		}
	})
	return parts, committed
}

// ListPartitions returns the committed partition directories of a CIF table
// in numeric order, so a half-written or still-staged partition is never
// scheduled.
func ListPartitions(fs *hdfs.FileSystem, dir string) ([]string, error) {
	all, committed := scanPartitionDirs(fs, dir)
	parts := all[:0]
	for _, p := range all {
		if committed[p] {
			parts = append(parts, p)
		}
	}
	sortPartitionDirs(parts)
	return parts, nil
}

// CIFSplit is one CIF partition: the unit of locality and scheduling.
type CIFSplit struct {
	PartitionDir string
	Hosts        []string
	bytes        int64
}

// Locations implements mr.InputSplit.
func (s *CIFSplit) Locations() []string { return s.Hosts }

// Length implements mr.InputSplit.
func (s *CIFSplit) Length() int64 { return s.bytes }

// MultiSplit packs several CIF partitions into one schedulable unit
// (MultiCIF, §5.1). Partitions are packed by primary host so the pack stays
// data-local.
type MultiSplit struct {
	Parts []*CIFSplit
}

// Locations implements mr.InputSplit.
func (s *MultiSplit) Locations() []string {
	if len(s.Parts) == 0 {
		return nil
	}
	return s.Parts[0].Hosts
}

// Length implements mr.InputSplit.
func (s *MultiSplit) Length() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.bytes
	}
	return n
}

// CIFInput is the ColumnInputFormat: splits are partitions (or multi-split
// packs of them) and readers materialize only the requested columns.
//
// The same input format serves the three execution modes the paper
// evaluates: row-at-a-time (CIF) through Next, block iteration (B-CIF)
// through NextBlock, and MultiCIF packing for jobs that set mr.Conf.MapThreads.
//
// With Pred set the scan additionally skips work at two granularities:
// Splits drops whole partitions whose zone maps prove Pred false everywhere,
// and NextBlock late-materializes — predicate and eager columns are decoded
// first, Pred is evaluated into a selection vector, and the remaining
// columns are decoded only at selected positions.
type CIFInput struct {
	Dir     string
	Columns []string // nil → all columns
	Schema  *records.Schema
	// Snapshot, when non-nil, is the frozen partition list this scan reads
	// instead of listing Dir — the per-query snapshot a Snapshots registry
	// pins at plan time, so a query never sees a partition published or
	// retired after it started. Zone-map pruning still applies to it.
	Snapshot []string
	// BlockRows is the rows per block for NextBlock (B-CIF); <= 0 uses 1024.
	BlockRows int

	// Pred is an optional row predicate over the projected columns. It is
	// used for zone-map pruning and late materialization only: rows the scan
	// delivers are guaranteed to satisfy it, but the consumer may safely
	// re-check (rows are never added, only dropped).
	Pred expr.Pred
	// PrunePreds are additional predicates used only for zone-map pruning,
	// never evaluated per row — e.g. foreign-key range hints derived from
	// dimension predicates. Each must be implied by the query's real
	// predicates for pruning to stay sound.
	PrunePreds []expr.Pred
	// EagerColumns names columns the consumer needs regardless of Pred
	// (typically join FKs); they are decoded with the predicate columns.
	EagerColumns []string
	// KeyFilters are semi-join filters pushed down into the scan: per fact
	// FK column, a bloom filter over the dimension keys surviving that
	// dimension's predicate. Rows whose FK is provably absent are dropped
	// in NextBlock (counted as CtrRowsBloomSkipped) before their remaining
	// columns materialize. Filters only drop rows, never add them, so a
	// bloom false positive costs one probe miss downstream, never a wrong
	// answer. Ignored on the row-at-a-time path (like Pred).
	KeyFilters []KeyFilter
	// DisablePruning and DisableLateMat turn off each optimization for
	// ablation and debugging.
	DisablePruning bool
	DisableLateMat bool
	// DisableCodeSpacePreds turns off code-space execution in the scan
	// (dictionary-code predicate bitmaps, frame-of-reference range fusion,
	// code carrying) for ablation; predicates and filters then evaluate over
	// materialized values only, and blocks carry no Codes.
	DisableCodeSpacePreds bool

	projected *records.Schema
	planned   bool // selection plan in effect (conj/filters/early/late valid)
	conj      []conjunctPlan
	filters   []filterPlan
	earlyIdx  []int // projected-schema indexes decoded before selection
	lateIdx   []int // projected-schema indexes decoded after selection
}

// conjunctPlan is one AND-factor of Pred with everything partition-
// independent precompiled: the generic block evaluation, and — for
// single-column conjuncts — a per-value evaluator (for translating the
// conjunct into a dictionary-code bitmap) and an integer range (for fusing
// into frame-of-reference decode). Which form applies is decided per partition, since it
// depends on each partition's column encodings.
type conjunctPlan struct {
	pred   expr.Pred
	bp     expr.BlockPred
	cols   []int                    // projected indexes the conjunct reads
	col    int                      // the single projected index, or -1
	vp     func(records.Value) bool // single-column value form (nil if unavailable)
	lo, hi int64                    // integer range form, valid when ranged
	ranged bool
}

// filterPlan is a KeyFilter resolved to its projected column index.
type filterPlan struct {
	col  int
	keys *KeyBloom
}

// Splits implements mr.InputFormat: it lists partitions, prunes those whose
// zone maps refute the predicate, and, when the job runs more than one map
// thread (mr.Conf.MapThreads), packs them into multi-splits by bytes.
func (in *CIFInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	parts := in.Snapshot
	if parts != nil {
		// Pruning filters in place; the pinned snapshot slice must survive
		// for the registry's pin accounting, so work on a copy.
		parts = append([]string(nil), parts...)
	} else {
		var err error
		parts, err = ListPartitions(ctx.FS, in.Dir)
		if err != nil {
			return nil, err
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("colstore: CIF table %s has no partitions", in.Dir)
	}
	parts, err := in.prunePartitions(ctx, parts)
	if err != nil {
		return nil, err
	}
	var raw []*CIFSplit
	for _, pdir := range parts {
		s := &CIFSplit{PartitionDir: pdir}
		for i := 0; i < in.projected.Len(); i++ {
			path := fmt.Sprintf("%s/%s.col", pdir, in.projected.Field(i).Name)
			info, err := ctx.FS.Stat(path)
			if err != nil {
				return nil, err
			}
			s.bytes += info.Size
			if s.Hosts == nil {
				locs, err := ctx.FS.BlockLocations(path, 0, 1)
				if err != nil {
					return nil, err
				}
				if len(locs) > 0 {
					s.Hosts = locs[0].Hosts
				}
			}
		}
		raw = append(raw, s)
	}

	threads := ctx.Conf.MapThreads
	if threads <= 1 {
		out := make([]mr.InputSplit, len(raw))
		for i, s := range raw {
			out[i] = s
		}
		return out, nil
	}
	// Group by primary host so a pack stays local to one node, then cut each
	// host's list in order: a pack takes one partition per probe thread, then
	// more while its bytes stay within a block per thread, so a table of
	// small partitions launches tasks by data volume, not partition count.
	target := int64(threads) * ctx.FS.BlockSize()
	byHost := map[string][]*CIFSplit{}
	var hosts []string
	for _, s := range raw {
		h := ""
		if len(s.Hosts) > 0 {
			h = s.Hosts[0]
		}
		if _, ok := byHost[h]; !ok {
			hosts = append(hosts, h)
		}
		byHost[h] = append(byHost[h], s)
	}
	sort.Strings(hosts)
	var out []mr.InputSplit
	for _, h := range hosts {
		var pack []*CIFSplit
		var bytes int64
		for _, s := range byHost[h] {
			if len(pack) >= threads && bytes+s.bytes > target {
				out = append(out, &MultiSplit{Parts: pack})
				pack, bytes = nil, 0
			}
			pack = append(pack, s)
			bytes += s.bytes
		}
		out = append(out, &MultiSplit{Parts: pack})
	}
	return out, nil
}

// prunePartitions drops partitions whose zone maps prove the predicate can
// match no row. Missing or unreadable stats keep the partition (never prune
// on uncertainty). Pruning counters and a "prune" span are charged to the
// job even when nothing is pruned, so reports can show 0 explicitly.
func (in *CIFInput) prunePartitions(ctx *mr.JobContext, parts []string) ([]string, error) {
	preds := in.PrunePreds
	if in.Pred != nil {
		preds = append([]expr.Pred{in.Pred}, preds...)
	}
	if in.DisablePruning || len(preds) == 0 {
		return parts, nil
	}
	start := time.Now()
	kept := parts[:0]
	var pruned, rowsPruned, bytesSkipped int64
	for _, pdir := range parts {
		ps, err := ReadPartitionStats(ctx.FS, pdir)
		if err != nil || ps == nil {
			kept = append(kept, pdir)
			continue
		}
		drop := false
		src := ps.RangeSource()
		for _, p := range preds {
			if expr.PredRange(p, src) == expr.RangeNever {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, pdir)
			continue
		}
		pruned++
		rowsPruned += ps.Rows
		for i := 0; i < in.projected.Len(); i++ {
			path := fmt.Sprintf("%s/%s.col", pdir, in.projected.Field(i).Name)
			if info, err := ctx.FS.Stat(path); err == nil {
				bytesSkipped += info.Size
			}
		}
	}
	if ctx.Counters != nil {
		ctx.Counters.Add(CtrPartitionsPruned, pruned)
		ctx.Counters.Add(CtrPartitionsScanned, int64(len(kept)))
		ctx.Counters.Add(CtrBytesSkipped, bytesSkipped)
		ctx.Counters.Add(CtrRowsPruned, rowsPruned)
	}
	if ctx.Tracer.Enabled() {
		s := obs.Span{
			Job:   ctx.JobID,
			Name:  obs.PhasePrune,
			Start: start,
			End:   time.Now(),
			Attrs: obs.Attrs(
				"kept", strconv.FormatInt(int64(len(kept)), 10),
				"pruned", strconv.FormatInt(pruned, 10),
				"bytes_skipped", strconv.FormatInt(bytesSkipped, 10)),
		}
		ctx.Trace.NewChild().Fill(&s, ctx.Trace.Span)
		ctx.Tracer.Emit(s)
	}
	return kept, nil
}

func (in *CIFInput) resolve(fs *hdfs.FileSystem) error {
	if in.Schema == nil {
		s, err := ReadSchema(fs, in.Dir)
		if err != nil {
			return err
		}
		in.Schema = s
	}
	if in.projected != nil {
		return nil
	}
	cols := in.Columns
	if cols == nil {
		cols = in.Schema.Names()
	}
	proj, err := in.Schema.Project(cols...)
	if err != nil {
		return err
	}
	in.projected = proj
	in.planLateMat()
	return nil
}

// planLateMat builds the partition-independent selection plan: Pred is
// split into conjuncts (each compiled to its block form plus, when
// single-column, its value and range forms), KeyFilters are resolved to
// projected int64 columns, and the projected columns are split into the
// eager set (predicate + filter + EagerColumns, decoded before selection)
// and the late set (decoded only at selected positions). Any reason the
// plan cannot be built — nothing to select on, disabled, compile failure,
// nothing to defer or drop — degrades to eager decoding of every column.
func (in *CIFInput) planLateMat() {
	in.planned, in.conj, in.filters, in.earlyIdx, in.lateIdx = false, nil, nil, nil, nil
	if in.DisableLateMat {
		return
	}
	var filters []filterPlan
	for _, f := range in.KeyFilters {
		if f.Keys == nil {
			continue
		}
		i := in.projected.Index(f.Column)
		if i < 0 || in.projected.Field(i).Kind != records.KindInt64 {
			continue
		}
		filters = append(filters, filterPlan{col: i, keys: f.Keys})
	}
	conjs := expr.Conjuncts(in.Pred)
	if len(conjs) == 0 && len(filters) == 0 {
		return
	}
	need := map[string]bool{}
	for _, c := range expr.ColumnsOf(nil, []expr.Pred{in.Pred}) {
		need[c] = true
	}
	for _, c := range in.EagerColumns {
		need[c] = true
	}
	for _, f := range filters {
		need[in.projected.Field(f.col).Name] = true
	}
	var early, late []int
	for i := 0; i < in.projected.Len(); i++ {
		if need[in.projected.Field(i).Name] {
			early = append(early, i)
		} else {
			late = append(late, i)
		}
	}
	if len(late) == 0 && len(filters) == 0 {
		return // every column is needed up front and nothing can be dropped
	}
	plans := make([]conjunctPlan, 0, len(conjs))
	for _, c := range conjs {
		bp, err := expr.CompileBlockPred(c, in.projected)
		if err != nil {
			return
		}
		cp := conjunctPlan{pred: c, bp: bp, col: -1}
		for _, name := range expr.ColumnsOf(nil, []expr.Pred{c}) {
			cp.cols = append(cp.cols, in.projected.Index(name))
		}
		if len(cp.cols) == 1 {
			cp.col = cp.cols[0]
			name := in.projected.Field(cp.col).Name
			cp.vp, _ = expr.CompileValuePred(c, name, in.projected.Field(cp.col).Kind)
			cp.lo, cp.hi, cp.ranged = expr.IntRangeOf(c, name)
		}
		plans = append(plans, cp)
	}
	in.planned, in.conj, in.filters, in.earlyIdx, in.lateIdx = true, plans, filters, early, late
}

// Open implements mr.InputFormat. The returned reader also implements
// BlockReader (B-CIF) and, for multi-splits, mr.MultiReader (MultiCIF).
func (in *CIFInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	if err := in.resolve(ctx.FS); err != nil {
		return nil, err
	}
	blockRows := in.BlockRows
	if blockRows <= 0 {
		blockRows = 1024
	}
	switch s := split.(type) {
	case *CIFSplit:
		return newCIFReader(ctx, s, in, blockRows), nil
	case *MultiSplit:
		children := make([]mr.RecordReader, len(s.Parts))
		for i, p := range s.Parts {
			children[i] = newCIFReader(ctx, p, in, blockRows)
		}
		return &multiReader{children: children}, nil
	default:
		return nil, fmt.Errorf("colstore: CIFInput got %T split", split)
	}
}

// BlockReader is implemented by readers that can deliver a block of rows at
// a time (B-CIF, §5.3). The returned block is reused across calls.
type BlockReader interface {
	NextBlock() (*records.RowBlock, bool, error)
}

// cifReader materializes one partition's projected columns and iterates
// them row-at-a-time or block-at-a-time.
type cifReader struct {
	ctx       *mr.TaskContext
	split     *CIFSplit
	in        *CIFInput
	schema    *records.Schema
	blockRows int

	loaded  bool
	decs    []*colDecoder // per projected column
	rows    int64
	pos     int64
	block   *records.RowBlock
	scratch []records.Value // Next's reused value slice
	sel     selection       // late materialization: the current block's selection

	havePlan bool
	plan     partPlan
	codeBufs [][]uint32 // per projected column, reused raw-code scratch indexed by position in the block
}

// partPlan is the partition-scoped form of the selection plan: the same
// conjuncts and filters as CIFInput's plan, specialized to this partition's
// column encodings. Rebuilt per partition in load().
type partPlan struct {
	fused     []fusedRange     // frame-of-reference columns decoded with a fused range check
	codeCols  []codeCol        // dictionary columns decoded as raw codes
	preVals   []int            // other early columns fully decoded before selection
	post      []int            // early columns deferred behind the selection vector
	codePreds []codeBitmap     // predicate conjuncts as bitmaps over codes
	rowPreds  []expr.BlockPred // residual conjuncts evaluated per row
	codeFilts []codeFilter     // semi-join filters as bitmaps over codes, most selective first
	valFilts  []filterPlan     // semi-join filters tested per decoded value
}

type fusedRange struct {
	col    int
	lo, hi int64
}

// codeCol is a dictionary-encoded early column, read as raw codes. When its
// codes are needed decides how many of them are decoded: a column a
// predicate reads is unpacked for the whole block before selection, one
// first read by a semi-join filter is decoded there for the rows still
// selected, and one only the consumer reads for the rows the selection
// kept. Values materialize pre-selection only when a residual predicate
// reads them (fullVals), otherwise post-selection.
type codeCol struct {
	col      int
	fullVals bool
	when     codesWhen
}

type codesWhen uint8

const (
	codesEarly codesWhen = iota
	codesAtFilter
	codesLate
)

// codeBitmap is a per-dictionary-entry decision: bits[code] is whether a
// row carrying that code passes. Predicates and bloom filters are evaluated
// once per distinct value instead of once per row.
type codeBitmap struct {
	col  int
	bits []bool
}

// codeFilter is a semi-join filter as a code bitmap; decode marks the filter
// that is its column's first reader and so decodes it.
type codeFilter struct {
	codeBitmap
	passing int // dictionary entries that pass
	decode  bool
}

// planPartition specializes the input's selection plan to this partition's
// encodings: single-column conjuncts on dictionary columns become code
// bitmaps, range conjuncts on frame-of-reference columns fuse into decode
// (settled per frame where the frame's bounds decide them), semi-join
// filters on dictionary columns become code bitmaps (the bloom is probed
// once per dictionary entry, not once per row) applied in order of the
// share of the dictionary they pass, so that the columns of the later ones
// are decoded for few rows, and everything else falls back to per-row
// evaluation over materialized values.
func (r *cifReader) planPartition() {
	r.plan = partPlan{}
	r.havePlan = r.in.planned
	if !r.havePlan {
		return
	}
	p := &r.plan
	codeOK := !r.in.DisableCodeSpacePreds

	// needVals marks early columns whose values must exist for all rows
	// before residual predicates or value-form filters run; when is each
	// dictionary column's first reader.
	needVals := make(map[int]bool)
	when := make(map[int]codesWhen)
	fused := make(map[int]fusedRange)
	for _, cp := range r.in.conj {
		var dec *colDecoder
		if cp.col >= 0 {
			dec = r.decs[cp.col]
		}
		if codeOK && dec != nil && dec.dictSize() > 0 && cp.vp != nil {
			bits := make([]bool, dec.dictSize())
			for c := range bits {
				bits[c] = cp.vp(dec.dictValue(c))
			}
			p.codePreds = append(p.codePreds, codeBitmap{col: cp.col, bits: bits})
			when[cp.col] = codesEarly
			continue
		}
		if codeOK && dec != nil && dec.enc == EncFOR && cp.ranged {
			f, ok := fused[cp.col]
			if !ok {
				f = fusedRange{col: cp.col, lo: cp.lo, hi: cp.hi}
			} else {
				// Several range conjuncts on one column intersect.
				if cp.lo > f.lo {
					f.lo = cp.lo
				}
				if cp.hi < f.hi {
					f.hi = cp.hi
				}
			}
			fused[cp.col] = f
			continue
		}
		p.rowPreds = append(p.rowPreds, cp.bp)
		for _, c := range cp.cols {
			needVals[c] = true
			when[c] = codesEarly
		}
	}
	for _, f := range r.in.filters {
		dec := r.decs[f.col]
		if codeOK && dec.enc == EncDictI64 {
			cf := codeFilter{codeBitmap: codeBitmap{col: f.col, bits: make([]bool, len(dec.intDict))}}
			for c, v := range dec.intDict {
				if cf.bits[c] = f.keys.MayContain(v); cf.bits[c] {
					cf.passing++
				}
			}
			p.codeFilts = append(p.codeFilts, cf)
		} else {
			p.valFilts = append(p.valFilts, f)
			needVals[f.col] = true
		}
	}
	sort.SliceStable(p.codeFilts, func(i, j int) bool {
		a, b := &p.codeFilts[i], &p.codeFilts[j]
		return a.passing*len(b.bits) < b.passing*len(a.bits)
	})
	for i := range p.codeFilts {
		f := &p.codeFilts[i]
		if _, read := when[f.col]; !read {
			f.decode, when[f.col] = true, codesAtFilter
		}
	}
	for _, c := range r.in.earlyIdx {
		if f, ok := fused[c]; ok {
			p.fused = append(p.fused, f)
			continue
		}
		dec := r.decs[c]
		switch {
		case codeOK && dec.dictSize() > 0:
			w, read := when[c]
			if !read {
				w = codesLate
			}
			p.codeCols = append(p.codeCols, codeCol{col: c, fullVals: needVals[c], when: w})
		case needVals[c]:
			p.preVals = append(p.preVals, c)
		default:
			// Early by request (e.g. an FK nothing filters on) but not read
			// until after selection: defer it like a late column.
			p.post = append(p.post, c)
		}
	}
}

// openColumnFile takes one column file apart and returns a decoder over its
// payload, positioned at the first row. The CRC is verified before any other
// byte is interpreted, and the row count the file claims is bounded by its
// payload (a packed value is at least one bit: rows <= 8 x bytes) before
// anything is sized by it. Every error names the file.
func openColumnFile(path string, data []byte, kind records.Kind) (*colDecoder, error) {
	if len(data) < len(cifMagic)+4 {
		return nil, fmt.Errorf("colstore: %s: short column file", path)
	}
	switch string(data[:len(cifMagic)]) {
	case cifMagic:
	case "CCF1":
		return nil, fmt.Errorf("colstore: %s: column magic %s is retired: the table predates the encoding byte and must be rewritten", path, data[:len(cifMagic)])
	default:
		return nil, fmt.Errorf("colstore: %s: bad column magic", path)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("colstore: %s: checksum mismatch (corrupted replica?)", path)
	}
	pos := len(cifMagic)
	count, n := binary.Uvarint(body[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("colstore: %s: bad row count", path)
	}
	pos += n
	if pos >= len(body) {
		return nil, fmt.Errorf("colstore: %s: missing encoding byte", path)
	}
	enc := Encoding(body[pos])
	pos++
	payload := body[pos:]
	if count > 8*uint64(len(payload)) {
		return nil, fmt.Errorf("colstore: %s: %d rows claimed by a %d-byte payload", path, count, len(payload))
	}
	dec, err := newColDecoder(kind, enc, int(count), payload)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	return dec, nil
}

// openPartition opens the column file of every schema column of the
// partition at pdir, fetched through read, and checks that they agree on the
// row count, which it returns.
func openPartition(pdir string, schema *records.Schema, read func(path string) ([]byte, error)) ([]*colDecoder, int, error) {
	decs := make([]*colDecoder, schema.Len())
	rows := 0
	for i := range decs {
		path := fmt.Sprintf("%s/%s.col", pdir, schema.Field(i).Name)
		data, err := read(path)
		if err != nil {
			return nil, 0, err
		}
		if decs[i], err = openColumnFile(path, data, schema.Field(i).Kind); err != nil {
			return nil, 0, err
		}
		if i == 0 {
			rows = decs[i].rows
		} else if decs[i].rows != rows {
			return nil, 0, fmt.Errorf("colstore: %s: %d rows, sibling columns have %d", path, decs[i].rows, rows)
		}
	}
	return decs, rows, nil
}

func newCIFReader(ctx *mr.TaskContext, s *CIFSplit, in *CIFInput, blockRows int) *cifReader {
	return &cifReader{ctx: ctx, split: s, in: in, schema: in.projected, blockRows: blockRows}
}

// load fetches the partition's projected column files from HDFS (charging
// only those columns' bytes — the I/O saving of columnar storage). The fetch
// is the task's "read" phase, opened in the thread form because a probe
// thread may do it, with the partition and whether this node holds the
// partition's replicas; each file's hdfs-read span is parented under it.
func (r *cifReader) load() error {
	if r.loaded {
		return nil
	}
	r.loaded = true
	local := slices.Contains(r.split.Locations(), r.ctx.Node().ID())
	reading := r.ctx.BeginThread(obs.PhaseRead)
	defer reading.End("partition", r.split.PartitionDir, "local", strconv.FormatBool(local))
	decs, rows, err := openPartition(r.split.PartitionDir, r.schema, func(path string) ([]byte, error) {
		return r.ctx.FS.ReadAllTraced(path, r.ctx.Node().ID(), reading.Trace)
	})
	if err != nil {
		return err
	}
	r.decs, r.rows = decs, int64(rows)
	r.codeBufs = make([][]uint32, len(decs))
	r.planPartition()
	return nil
}

// Next implements mr.RecordReader (row-at-a-time CIF). The returned record
// shares a scratch value slice that is overwritten by the following Next
// call; consumers that retain records across calls must Clone them. The
// map runners satisfy this — records are serialized or probed before the
// next read.
func (r *cifReader) Next() (records.Record, records.Record, bool, error) {
	if err := r.load(); err != nil {
		return records.Record{}, records.Record{}, false, err
	}
	if r.pos >= r.rows {
		return records.Record{}, records.Record{}, false, nil
	}
	if r.scratch == nil {
		r.scratch = make([]records.Value, r.schema.Len())
	}
	for i, dec := range r.decs {
		v, err := dec.next()
		if err != nil {
			return records.Record{}, records.Record{}, false, err
		}
		r.scratch[i] = v
	}
	r.pos++
	return records.Record{}, records.Make(r.schema, r.scratch...), true, nil
}

// blockCodes decodes projected column c's raw codes for the current block
// into the column's scratch: every row's when s is nil or dense, the
// selected rows' only when it is sparse.
func (r *cifReader) blockCodes(c, n int, s *selection) ([]uint32, error) {
	var err error
	if s == nil {
		r.codeBufs[c], err = r.decs[c].decodeCodes(r.codeBufs[c][:0], n)
	} else {
		r.codeBufs[c], err = r.decs[c].decodeCodesSelected(r.codeBufs[c], s)
	}
	return r.codeBufs[c], err
}

// NextBlock implements BlockReader (B-CIF): it fills the reusable block with
// typed bulk decodes. With a selection plan, the scan works on encoded data
// as long as it can: dictionary columns are unpacked to raw codes and
// predicates/semi-join filters translated to code bitmaps are tested
// against them, range conjuncts on frame-of-reference columns are checked
// during decode (per frame where its bounds settle them), residual conjuncts
// run per row over the materialized eager values, and only rows surviving
// all of that ever materialize their remaining columns. Every column is
// decoded as late as its first reader allows, and once the selection is
// sparse a column is gathered at the selected positions instead of
// unpacked: the semi-join filters after the first, the consumer's columns
// and the deferred ones cost by rows kept, not rows stored. Predicate drops
// are counted as rows_late_skipped, semi-join drops (tested only on rows
// the predicate kept) as rows_bloom_skipped. Blocks in which no row
// survives are skipped entirely (blocks_skipped): the cursors of the
// columns not yet read move past them.
func (r *cifReader) NextBlock() (*records.RowBlock, bool, error) {
	if err := r.load(); err != nil {
		return nil, false, err
	}
	for r.pos < r.rows {
		n := int(r.blockRows)
		if r.pos+int64(n) > r.rows {
			n = int(r.rows - r.pos)
		}
		if r.block == nil {
			r.block = records.NewRowBlock(r.schema, r.blockRows)
		}
		r.block.Reset()
		r.pos += int64(n)
		if r.ctx.Counters != nil {
			r.ctx.Counters.Add(CtrRowsScanned, int64(n))
		}
		if !r.havePlan {
			// No selection: decode every column, still carrying codes and
			// dictionaries out of dictionary-encoded columns so the probe
			// can use code→offset side tables.
			for c, dec := range r.decs {
				cv := r.block.Col(c)
				if !r.in.DisableCodeSpacePreds && dec.dictSize() > 0 {
					codes, err := r.blockCodes(c, n, nil)
					if err != nil {
						return nil, false, err
					}
					dec.appendFromCodes(cv, codes, nil)
					cv.Dict = dec.dictDescriptor()
				} else if err := dec.decodeInto(cv, n); err != nil {
					return nil, false, err
				}
			}
			r.block.SetLen(n)
			return r.block, true, nil
		}

		p, s := &r.plan, &r.sel
		if cap(s.mask) < n {
			s.mask = make([]bool, n)
		}
		s.mask, s.count, s.listed = s.mask[:n], n, false
		sel := s.mask
		for i := range sel {
			sel[i] = true
		}
		// The predicate: range conjuncts fused into frame-of-reference
		// decode, then code bitmaps over the dictionary columns it reads.
		for _, f := range p.fused {
			if err := r.decs[f.col].decodeRangeSel(r.block.Col(f.col), sel, f.lo, f.hi); err != nil {
				return nil, false, err
			}
		}
		if len(p.fused) > 0 {
			s.count = 0
			for _, keep := range sel {
				if keep {
					s.count++
				}
			}
		}
		for _, cc := range p.codeCols {
			if cc.when == codesEarly {
				if _, err := r.blockCodes(cc.col, n, nil); err != nil {
					return nil, false, err
				}
			}
		}
		for _, cb := range p.codePreds {
			s.keepCodes(r.codeBufs[cb.col], cb.bits)
		}
		// Values residual conjuncts read must exist for every row.
		for _, c := range p.preVals {
			if err := r.decs[c].decodeInto(r.block.Col(c), n); err != nil {
				return nil, false, err
			}
		}
		for _, cc := range p.codeCols {
			if cc.fullVals {
				cv := r.block.Col(cc.col)
				r.decs[cc.col].appendFromCodes(cv, r.codeBufs[cc.col], nil)
				cv.Dict = r.decs[cc.col].dictDescriptor()
			}
		}
		for _, bp := range p.rowPreds {
			s.keepIf(func(i int32) bool { return bp(r.block, int(i)) })
		}
		predKept := s.count
		if r.ctx.Counters != nil {
			r.ctx.Counters.Add(CtrRowsLateSkipped, int64(n-predKept))
		}
		// Semi-join filters run after the predicate, on surviving rows only,
		// so the two drop counters partition the dropped rows.
		ran := 0
		for ; ran < len(p.codeFilts) && s.count > 0; ran++ {
			f := &p.codeFilts[ran]
			if f.decode {
				if _, err := r.blockCodes(f.col, n, s); err != nil {
					return nil, false, err
				}
			}
			s.keepCodes(r.codeBufs[f.col], f.bits)
		}
		for _, vf := range p.valFilts {
			ints := r.block.Col(vf.col).Ints
			s.keepIf(func(i int32) bool { return vf.keys.MayContain(ints[i]) })
		}
		selected := s.count
		if r.ctx.Counters != nil {
			r.ctx.Counters.Add(CtrRowsBloomSkipped, int64(predKept-selected))
		}
		if selected == 0 {
			// Nothing survived: move the columns not yet read past this
			// block.
			if r.ctx.Counters != nil {
				r.ctx.Counters.Add(CtrBlocksSkipped, 1)
			}
			var err error
			skip := func(c int) {
				if err == nil {
					err = r.decs[c].skip(n)
				}
			}
			for _, f := range p.codeFilts[ran:] {
				if f.decode {
					skip(f.col)
				}
			}
			for _, cc := range p.codeCols {
				if cc.when == codesLate {
					skip(cc.col)
				}
			}
			for _, set := range [][]int{p.post, r.in.lateIdx} {
				for _, c := range set {
					skip(c)
				}
			}
			if err != nil {
				return nil, false, err
			}
			continue
		}
		// Materialize survivors.
		if selected < n {
			for _, f := range p.fused {
				r.block.Col(f.col).Compact(sel)
			}
			for _, c := range p.preVals {
				r.block.Col(c).Compact(sel)
			}
		}
		for _, cc := range p.codeCols {
			cv := r.block.Col(cc.col)
			if cc.fullVals {
				if selected < n {
					cv.Compact(sel)
				}
				continue
			}
			if cc.when == codesLate {
				if _, err := r.blockCodes(cc.col, n, s); err != nil {
					return nil, false, err
				}
			}
			r.decs[cc.col].appendFromCodes(cv, r.codeBufs[cc.col], s)
			cv.Dict = r.decs[cc.col].dictDescriptor()
		}
		for _, set := range [][]int{p.post, r.in.lateIdx} {
			for _, c := range set {
				if err := r.decs[c].decodeSelected(r.block.Col(c), s); err != nil {
					return nil, false, err
				}
			}
		}
		r.block.SetLen(selected)
		return r.block, true, nil
	}
	return nil, false, nil
}

// Close implements mr.RecordReader. It drops the decoded partition (the
// column payloads and dictionaries), the block and the scratch buffers, so a
// drained partition of a multi-split is freed before its task ends. Closing
// again is harmless.
func (r *cifReader) Close() error {
	r.decs, r.block, r.codeBufs, r.scratch = nil, nil, nil, nil
	r.sel, r.plan = selection{}, partPlan{}
	return nil
}

// multiReader serves a multi-split: sequential Next for the default runner
// and independent per-partition readers for multi-threaded runners. The two
// access modes drain the same underlying children, so they are mutually
// exclusive: whichever of Readers or Next is called first claims the reader,
// and the other mode errors rather than silently double-reading partitions.
type multiReader struct {
	children []mr.RecordReader
	cur      int
	mode     int8 // 0 unclaimed, 1 Next, 2 Readers
}

// Readers implements mr.MultiReader, claiming the reader for per-partition
// access. It errors if sequential iteration already started.
func (m *multiReader) Readers() ([]mr.RecordReader, error) {
	if m.mode == 1 {
		return nil, fmt.Errorf("colstore: multiReader.Readers after Next would re-read partitions")
	}
	m.mode = 2
	return append([]mr.RecordReader(nil), m.children...), nil
}

// Next implements mr.RecordReader by draining children in order. It errors
// if the children were already handed out via Readers.
func (m *multiReader) Next() (records.Record, records.Record, bool, error) {
	if m.mode == 2 {
		return records.Record{}, records.Record{}, false,
			fmt.Errorf("colstore: multiReader.Next after Readers would re-read partitions")
	}
	m.mode = 1
	for m.cur < len(m.children) {
		k, v, ok, err := m.children[m.cur].Next()
		if err != nil || ok {
			return k, v, ok, err
		}
		m.cur++
	}
	return records.Record{}, records.Record{}, false, nil
}

// Close implements mr.RecordReader.
func (m *multiReader) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
