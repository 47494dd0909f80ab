package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// Clydesdale-specific counters.
const (
	CtrHashTablesBuilt = "CLYDESDALE_HASH_TABLES_BUILT"
	CtrHashBuildNanos  = "CLYDESDALE_HASH_BUILD_NANOS"
	CtrHashReuses      = "CLYDESDALE_HASH_TABLE_REUSES"
	CtrProbeRows       = "CLYDESDALE_PROBE_ROWS"
	CtrProbeEmits      = "CLYDESDALE_PROBE_EMITS"
	CtrProbeNanos      = "CLYDESDALE_PROBE_NANOS"
	CtrProbeThreads    = "CLYDESDALE_PROBE_THREADS"
	// CtrCodeSideTables counts code→offset side-table builds (one per
	// dimension table × fact FK dictionary); CtrCodeProbeRows counts probe
	// lookups answered by a side-table array read instead of a hash probe.
	CtrCodeSideTables = "CLYDESDALE_CODE_SIDE_TABLES"
	CtrCodeProbeRows  = "CLYDESDALE_CODE_PROBE_ROWS"
	// What the hash builds read from the node-local dimension copies, kept
	// per table as "<name>.<table>" (DimBuildStats has the definitions).
	CtrDimRowsScanned = "dim_rows_scanned"
	CtrDimRowsKept    = "dim_rows_kept"
	CtrDimBytesRead   = "dim_bytes_read"
)

// starJoinRunner is Clydesdale's MTMapRunner (§5.1, Figure 5) and the one
// map-side join implementation in this package: it acquires the node's
// dimension hash tables (from the table cache, or under NoMultiThreading by
// a private build), unpacks its multi-split into one reader per partition,
// which its threads take from a queue, and probes every table with early-out over block or row readers. What it does
// with a joined row is the sink, fixed once per job: fold the measure into
// grouped partial sums (a plan's last pass, the star job) or carry the row
// on through the collector (every pass before it). One runner instance
// serves every task of the job.
type starJoinRunner struct {
	eng *Engine
	// dims are the tables to build, in probe order; their FactFK columns
	// are read off the probe stream. dirs and keys are each one's directory
	// and TableKey, worked out once per job rather than once per task.
	dims []DimSpec
	dirs []string
	keys []string
	// tables is the cache the job's tasks take their tables from: the one
	// the engine was given, else the job's own. Nil under NoMultiThreading.
	tables *TableCache
	// factPred filters the probe stream before the probe; nil when the
	// stream is an already-filtered intermediate.
	factPred expr.Pred

	// out is what the sink assembles from every joined row, each column off
	// the probe stream or out of a dimension's aux values: the carried row,
	// or with a measure agg (the grouped-partial-sum sink) the group key.
	out *records.Schema
	agg expr.Expr
}

// hashTables returns the node's hash tables, building them on first use,
// plus a release the caller runs when probing ends. With multi-threading on
// they come from the table cache, which owns their reservations and shares
// them among the node's consecutive and concurrent tasks; a task that built
// none of the tables it probes counts one reuse. Under NoMultiThreading each
// task builds privately, reproducing the Figure 9 ablation, and reserves the
// resident size against its own allowance (the release is then a no-op: the
// reservation falls with the task).
func (r *starJoinRunner) hashTables(ctx *mr.TaskContext) ([]*DimHashTable, func(), error) {
	hts := make([]*DimHashTable, len(r.dims))
	if r.tables == nil {
		var total int64
		for i := range r.dims {
			h, err := buildDim(ctx, r.dirs[i], &r.dims[i])
			if err != nil {
				return nil, nil, err
			}
			hts[i] = h
			total += h.MemBytes
		}
		return hts, func() {}, ctx.ReserveMemory(total)
	}
	releases := make([]func(), 0, len(r.dims))
	releaseAll := func() {
		for _, rel := range releases {
			rel()
		}
	}
	reused := len(r.dims) > 0
	for i := range r.dims {
		ht, built, rel, err := r.tables.acquire(ctx, r.dirs[i], r.keys[i], &r.dims[i])
		if err != nil {
			releaseAll()
			return nil, nil, err
		}
		hts[i] = ht
		reused = reused && !built
		releases = append(releases, rel)
	}
	if reused {
		ctx.Counters.Add(CtrHashReuses, 1)
	}
	return hts, releaseAll, nil
}

// buildDim is a task building one table on its node (BuildDimHashTable),
// and the one place the hash-build counters and span come from: the build's
// time, and per table ("dim_rows_scanned.customer") what it read from the
// node-local copy.
func buildDim(ctx *mr.TaskContext, dimDir string, spec *DimSpec) (*DimHashTable, error) {
	start := time.Now()
	h, err := BuildDimHashTable(ctx.FS, ctx.Node(), dimDir, spec)
	if err != nil {
		return nil, err
	}
	ctx.Counters.Add(CtrHashTablesBuilt, 1)
	ctx.Counters.Add(CtrHashBuildNanos, time.Since(start).Nanoseconds())
	attrs := []string{"table", spec.Table}
	for _, m := range [...]struct {
		name string
		v    int64
	}{
		{CtrDimRowsScanned, h.Stats.RowsScanned},
		{CtrDimRowsKept, h.Stats.RowsKept},
		{CtrDimBytesRead, h.Stats.BytesRead},
	} {
		name := m.name + "." + h.Table
		ctx.Counters.Add(name, m.v)
		attrs = append(attrs, name, strconv.FormatInt(m.v, 10))
	}
	ctx.Span(obs.PhaseHashBuild, start, attrs...)
	return h, nil
}

// probeScratch is one probe thread's reusable state: the per-row join
// buffers, the boxed records handed to the collector — outRec the carried
// row or the group key, valRec an uncombined partial sum; safe to reuse,
// since the map collector and the row writers serialize immediately and
// retain nothing — and the in-mapper aggregator when combining is on.
type probeScratch struct {
	auxRow  [][]records.Value
	fkCols  [][]int64
	fkCodes [][]uint32 // per dim: the FK column's dictionary codes, when carried
	fkSide  [][]int32  // per dim: code→arena-offset side table, nil → hash probe
	outVals []records.Value
	outRec  records.Record // wraps outVals
	valVals []records.Value
	valRec  records.Record // wraps valVals
	keyBuf  []byte
	agg     *groupAgg

	// lastSide is, per dim, the dictionary last looked up and its side table:
	// a reader's blocks share one dictionary, so CodeSideTable (a lock and,
	// for a dictionary a cached table saw in another query, a full content
	// compare) runs once per reader, not once per block.
	lastSide []sideLookup
}

type sideLookup struct {
	dict *records.ColumnDict
	offs []int32
}

func (r *starJoinRunner) newScratch() *probeScratch {
	sc := &probeScratch{
		auxRow:   make([][]records.Value, len(r.dims)),
		fkCols:   make([][]int64, len(r.dims)),
		fkCodes:  make([][]uint32, len(r.dims)),
		fkSide:   make([][]int32, len(r.dims)),
		outVals:  make([]records.Value, r.out.Len()),
		valVals:  make([]records.Value, 1),
		lastSide: make([]sideLookup, len(r.dims)),
	}
	sc.outRec = records.Make(r.out, sc.outVals...)
	sc.valRec = records.Make(AggValueSchema, sc.valVals...)
	if r.agg != nil && !r.eng.opts.Ablate.Has(NoInMapperCombining) {
		sc.agg = newGroupAgg()
	}
	return sc
}

// groupAgg is a per-thread in-mapper combiner for the algebraic sum
// aggregate (legal precisely because partial sums merge associatively —
// the job's combiner and reducer still run over the flushed partials).
// Groups are keyed by encoded group-key bytes; SSB group-by cardinality is
// tiny, so the map stays small while absorbing one update per joined row.
type groupAgg struct {
	idx  map[string]int
	keys [][]byte
	sums []float64
}

func newGroupAgg() *groupAgg { return &groupAgg{idx: make(map[string]int)} }

// add folds one measure into the group for key (borrowed bytes; copied only
// on first sight of the group).
func (a *groupAgg) add(key []byte, measure float64) {
	if i, ok := a.idx[string(key)]; ok { // no-alloc lookup
		a.sums[i] += measure
		return
	}
	kb := append([]byte(nil), key...)
	a.idx[string(kb)] = len(a.sums)
	a.keys = append(a.keys, kb)
	a.sums = append(a.sums, measure)
}

// flush emits one (group, partial sum) record pair per accumulated group,
// in first-seen order.
func (a *groupAgg) flush(gschema *records.Schema, out mr.Collector) error {
	for i, kb := range a.keys {
		key, _, err := records.DecodeRecord(kb, gschema)
		if err != nil {
			return fmt.Errorf("core: decoding aggregated group key: %w", err)
		}
		if err := out.Collect(key, records.Make(AggValueSchema, records.Float(a.sums[i]))); err != nil {
			return err
		}
	}
	return nil
}

// Run implements mr.MapRunner.
func (r *starJoinRunner) Run(ctx *mr.TaskContext, reader mr.RecordReader, out mr.Collector) error {
	hts, release, err := r.hashTables(ctx)
	if err != nil {
		return err
	}
	defer release()

	readers := []mr.RecordReader{reader}
	if multi, ok := reader.(mr.MultiReader); ok && !r.eng.opts.Ablate.Has(NoMultiThreading) {
		rs, err := multi.Readers()
		if err != nil {
			return err
		}
		readers = rs
	}

	// §5.2 requirement (3): the scheduler tells the task how many slots it
	// may occupy; cap the thread count accordingly and let threads pull
	// readers from a queue (a pack may hold more splits than slots).
	threads := int(ctx.Conf.GetInt(mr.ConfMapThreads, 1))
	if threads < 1 {
		threads = 1
	}
	if threads > len(readers) {
		threads = len(readers)
	}
	ctx.Counters.Add(CtrProbeThreads, int64(threads))

	probeStart := time.Now()
	queue := make(chan mr.RecordReader, len(readers))
	for _, rd := range readers {
		queue <- rd
	}
	close(queue)
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := r.newScratch()
			for rd := range queue {
				// Close each reader once drained, so a pack holds one decoded
				// partition per thread, not all of them until the task ends;
				// the task closes them all again, which is harmless.
				err := r.probe(ctx, rd, hts, sc, out)
				if cerr := rd.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
			if sc.agg != nil {
				// In-mapper combining: the boxed records exist only now,
				// one pair per group instead of one per joined row.
				errs[i] = sc.agg.flush(r.out, out)
			}
		}(i)
	}
	wg.Wait()
	ctx.Counters.Add(CtrProbeNanos, time.Since(probeStart).Nanoseconds())
	ctx.Span(obs.PhaseProbe, probeStart, "threads", fmt.Sprint(threads))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probe drains one reader, choosing the block-iteration path when enabled
// and available (§5.3).
func (r *starJoinRunner) probe(ctx *mr.TaskContext, rd mr.RecordReader, hts []*DimHashTable, sc *probeScratch, out mr.Collector) error {
	if br, ok := rd.(colstore.BlockReader); ok && !r.eng.opts.Ablate.Has(NoBlockIteration) {
		return r.probeBlocks(ctx, br, hts, sc, out)
	}
	return r.probeRows(ctx, rd, hts, sc, out)
}

// bind resolves, against the schema a reader yields, where each dimension's
// FK sits and where every column the sink assembles comes from.
func (r *starJoinRunner) bind(schema *records.Schema) (fkIdx []int, srcs []outputSource, err error) {
	fkIdx = make([]int, len(r.dims))
	for i, d := range r.dims {
		if fkIdx[i] = schema.Index(d.FactFK); fkIdx[i] < 0 {
			return nil, nil, fmt.Errorf("core: probe stream %v lacks FK %s", schema, d.FactFK)
		}
	}
	srcs, err = outputSources(r.out, schema, r.dims)
	return fkIdx, srcs, err
}

// probeBlocks is the B-CIF path: one reader call per block, tight loops
// over typed column vectors, no per-row boxing before the join filter.
func (r *starJoinRunner) probeBlocks(ctx *mr.TaskContext, br colstore.BlockReader, hts []*DimHashTable, sc *probeScratch, out mr.Collector) error {
	var pred expr.BlockPred
	var agg expr.BlockNum
	var fkIdx []int
	var srcs []outputSource
	compiled := false
	auxRow := sc.auxRow
	var rows, emits, codeProbes int64

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		blk, ok, err := br.NextBlock()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !compiled {
			schema := blk.Schema()
			if r.factPred != nil {
				if pred, err = expr.CompileBlockPred(r.factPred, schema); err != nil {
					return err
				}
			}
			if r.agg != nil {
				if agg, err = expr.CompileBlockNum(r.agg, schema); err != nil {
					return err
				}
			}
			if fkIdx, srcs, err = r.bind(schema); err != nil {
				return err
			}
			compiled = true
		}
		fkCols, fkCodes, fkSide := sc.fkCols, sc.fkCodes, sc.fkSide
		for i, ix := range fkIdx {
			cv := blk.Col(ix)
			fkCols[i] = cv.Ints
			fkSide[i] = nil
			// Dictionary-probe side table: when the reader carried the FK
			// column's codes out of the scan, translate its dictionary to
			// arena offsets once and probe by array index below.
			if !r.eng.opts.Ablate.Has(NoCodeSpacePreds) && cv.Dict != nil && len(cv.Codes) == len(cv.Ints) {
				last := &sc.lastSide[i]
				if last.dict != cv.Dict {
					side, built := hts[i].CodeSideTable(cv.Dict)
					*last = sideLookup{dict: cv.Dict, offs: side}
					if built {
						ctx.Counters.Add(CtrCodeSideTables, 1)
					}
				}
				if last.offs != nil {
					fkSide[i] = last.offs
					fkCodes[i] = cv.Codes
				}
			}
		}
		n := blk.Len()
		rows += int64(n)
	rowLoop:
		for i := 0; i < n; i++ {
			if pred != nil && !pred(blk, i) {
				continue
			}
			// Early-out probe (§4.2), in plan order: stop at the first
			// dimension miss.
			for d := range hts {
				if side := fkSide[d]; side != nil {
					codeProbes++ // misses are side-table answers too
					off := side[fkCodes[d][i]]
					if off < 0 {
						continue rowLoop
					}
					auxRow[d] = hts[d].AuxAt(off)
					continue
				}
				aux, ok := hts[d].Probe(fkCols[d][i])
				if !ok {
					continue rowLoop
				}
				auxRow[d] = aux
			}
			for oi, s := range srcs {
				if s.factIdx >= 0 {
					sc.outVals[oi] = blk.Col(s.factIdx).Value(i)
				}
			}
			var measure float64
			if agg != nil {
				measure = agg(blk, i)
			}
			if err := r.emit(sc, out, srcs, measure); err != nil {
				return err
			}
			emits++
		}
	}
	ctx.Counters.Add(CtrProbeRows, rows)
	ctx.Counters.Add(CtrProbeEmits, emits)
	ctx.Counters.Add(CtrCodeProbeRows, codeProbes)
	return nil
}

// probeRows is the row-at-a-time path — CIF under NoBlockIteration, and the
// row-format intermediates of multi-pass plans: one reader call and one
// boxed record per row.
func (r *starJoinRunner) probeRows(ctx *mr.TaskContext, rd mr.RecordReader, hts []*DimHashTable, sc *probeScratch, out mr.Collector) error {
	var pred expr.RowPred
	var agg expr.RowNum
	var fkIdx []int
	var srcs []outputSource
	compiled := false
	auxRow := sc.auxRow
	var rows, emits int64

rowLoop:
	for {
		if rows%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		_, rec, ok, err := rd.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !compiled {
			schema := rec.Schema()
			if r.factPred != nil {
				if pred, err = expr.CompilePred(r.factPred, schema); err != nil {
					return err
				}
			}
			if r.agg != nil {
				if agg, err = expr.CompileNum(r.agg, schema); err != nil {
					return err
				}
			}
			if fkIdx, srcs, err = r.bind(schema); err != nil {
				return err
			}
			compiled = true
		}
		rows++
		if pred != nil && !pred(rec) {
			continue
		}
		for d := range hts {
			aux, ok := hts[d].Probe(rec.At(fkIdx[d]).Int64())
			if !ok {
				continue rowLoop
			}
			auxRow[d] = aux
		}
		for oi, s := range srcs {
			if s.factIdx >= 0 {
				sc.outVals[oi] = rec.At(s.factIdx)
			}
		}
		var measure float64
		if agg != nil {
			measure = agg(rec)
		}
		if err := r.emit(sc, out, srcs, measure); err != nil {
			return err
		}
		emits++
	}
	ctx.Counters.Add(CtrProbeRows, rows)
	ctx.Counters.Add(CtrProbeEmits, emits)
	return nil
}

// emit is the sink. The caller has filled the columns of out that come off
// the probe stream; the rest come from the joined aux values. A carried row
// then goes through the collector in the thread's reusable record; a group
// key has its measure folded into the thread's aggregator (in-mapper
// combining) or collected as a (key, measure) pair through the reusable
// records — every path allocation-free per row.
func (r *starJoinRunner) emit(sc *probeScratch, out mr.Collector, srcs []outputSource, measure float64) error {
	for oi, s := range srcs {
		if s.factIdx < 0 {
			sc.outVals[oi] = sc.auxRow[s.dim][s.aux]
		}
	}
	switch {
	case r.agg == nil:
		return out.Collect(records.Record{}, sc.outRec)
	case sc.agg != nil:
		sc.keyBuf = records.AppendRecord(sc.keyBuf[:0], sc.outRec)
		sc.agg.add(sc.keyBuf, measure)
		return nil
	}
	sc.valVals[0] = records.Float(measure)
	return out.Collect(sc.outRec, sc.valRec)
}

// outputSource locates one column the sink assembles: a probe-stream column
// or a dimension aux column.
type outputSource struct {
	factIdx int // >= 0: index in the probe stream's schema
	dim     int // else: dims[dim].Aux[aux]
	aux     int
}

// outputSources maps every field of out onto the probe stream in or a
// dimension's aux payload.
func outputSources(out, in *records.Schema, dims []DimSpec) ([]outputSource, error) {
	srcs := make([]outputSource, out.Len())
fields:
	for i := range srcs {
		name := out.Field(i).Name
		if j := in.Index(name); j >= 0 {
			srcs[i] = outputSource{factIdx: j}
			continue
		}
		for d := range dims {
			for a, auxCol := range dims[d].Aux {
				if auxCol == name {
					srcs[i] = outputSource{factIdx: -1, dim: d, aux: a}
					continue fields
				}
			}
		}
		return nil, fmt.Errorf("core: output column %s has neither a probe-stream nor an aux source", name)
	}
	return srcs, nil
}

// AggValueSchema is the map-output value: one partial aggregate. The Hive
// baseline's group-by job emits it too.
var AggValueSchema = records.NewSchema(records.F("agg", records.KindFloat64))

// SumReducer sums partial aggregates per group; it serves as both the
// combiner and the reducer (Figure 4), here and in the Hive baseline's
// group-by job.
type SumReducer struct{ mr.BaseReducer }

// Reduce implements mr.Reducer.
func (SumReducer) Reduce(key records.Record, values mr.Values, out mr.Collector) error {
	var sum float64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		sum += v.At(0).Float64()
	}
	return out.Collect(key, records.Make(AggValueSchema, records.Float(sum)))
}
