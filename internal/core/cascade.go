package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// Cascading map-side joins (after arXiv 1206.6293): a snowflake plan runs
// as a chain of map-only jobs with no reduce phase between joins. Pass 1
// is a Clydesdale star pass over the depth-1 dimensions whose output is
// written hash-partitioned on the first snowflake join key (the
// co-partitioned output contract, mr.BucketOf). Each subsequent pass
// schedules one map task per bucket; the task loads only the matching
// bucket of a driver-bucketed side table, probes it, and emits its output
// bucketed on the next join key — so every join after the first is
// map-side and shuffle-free.

// Cascade executor counters.
const (
	CtrCascadePasses    = "CLYDESDALE_CASCADE_PASSES"
	CtrCascadeSideLoads = "CLYDESDALE_CASCADE_SIDE_LOADS"
	CtrCascadeSideNanos = "CLYDESDALE_CASCADE_SIDE_LOAD_NANOS"
	CtrCascadeSideRows  = "CLYDESDALE_CASCADE_SIDE_ROWS"
)

var cascadeSeq atomic.Int64

// runCascade executes a KindCascade physical plan.
func (e *Engine) runCascade(ctx context.Context, p *plan.Physical, pin *Pin) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh := p.Shape
	head := 0
	for head < len(p.Steps) && p.Steps[head].Depth == 1 {
		head++
	}
	if head == 0 || head == len(p.Steps) {
		return nil, nil, fmt.Errorf("core: cascade plan for %s needs depth-1 and deeper steps", sh.Name)
	}
	buckets := p.Buckets
	if buckets < 1 {
		buckets = 1
	}
	dims := pin.DimSpecs(p.Steps[:head])
	if err := e.ensureCached(ctx, dims); err != nil {
		return nil, nil, err
	}

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-cascade-%d", sh.Name, cascadeSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	counters := mr.NewCounters()
	passes := 0

	// Pass 1: the star-join runner over the depth-1 dimensions as one
	// map-only job (per-node shared hash tables, early-out probes), its
	// carried rows written bucketed on the first deep join key. It is the
	// only pass that reads the fact table; deeper passes consume bucketed
	// intermediates.
	curDir := tmp + "/pass-1"
	curSchema := p.Steps[head-1].Out
	res, err := e.runJoinPass(ctx, "clydesdale-cascade-"+sh.Name+"-star", e.factScan(sh, dims, pin),
		&colstore.BucketRowOutput{Dir: curDir, Schema: curSchema, KeyCol: p.Steps[head].FK, Buckets: buckets},
		newRowRunner(e, dims, sh.FactPred, curSchema))
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s cascade star pass: %w", sh.Name, err)
	}
	counters.Merge(res.Counters)
	passes++

	// Deep passes: one map-only job per snowflake edge, probe stream
	// co-partitioned with a driver-bucketed side table.
	for i := head; i < len(p.Steps); i++ {
		st := &p.Steps[i]
		sideDir := fmt.Sprintf("%s/side-%s", tmp, st.Table)
		sideSchema, err := e.writeCascadeSideTable(ctx, st, pin.Read.Of(st.Table), sideDir, buckets)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s cascade side table %s: %w", sh.Name, st.Table, err)
		}
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i-head+2)
		var output mr.OutputFormat
		if i+1 < len(p.Steps) {
			output = &colstore.BucketRowOutput{Dir: outDir, Schema: st.Out, KeyCol: p.Steps[i+1].FK, Buckets: buckets}
		} else {
			output = &colstore.RowOutput{Dir: outDir, Schema: st.Out}
		}
		res, err := e.runCascadeJoinPass(ctx, sh.Name, st, curDir, curSchema, sideDir, sideSchema, output)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s cascade pass %d (%s): %w", sh.Name, i-head+2, st.Table, err)
		}
		counters.Merge(res.Counters)
		passes++
		curDir, curSchema = outDir, st.Out
	}

	out, res, err := e.runAggJob(ctx, "clydesdale-cascade-agg-"+sh.Name, sh, &colstore.RowInput{Dir: curDir, Schema: curSchema})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s cascade aggregation: %w", sh.Name, err)
	}
	counters.Merge(res.Counters)
	counters.Add(CtrCascadePasses, int64(passes))
	job := &mr.JobResult{JobID: "cascade", Counters: counters, Duration: time.Since(start)}
	return finish(sh, out, &Report{Job: job, Cascade: true, CascadePasses: passes}, start)
}

// writeCascadeSideTable scans the pinned version of a snowflake dimension on
// the driver, filters it, and writes one blob per bucket (PK + aux columns, bucketed
// by mr.BucketOf on the PK — the same function that bucketed the probe
// stream). Returns the side blob's record schema.
func (e *Engine) writeCascadeSideTable(ctx context.Context, st *plan.Step, version uint64, sideDir string, buckets int) (*records.Schema, error) {
	done := e.phaseSpan(ctx, obs.PhaseHashBuild)
	defer done()
	dimDir, err := e.cat.DimDir(st.Table)
	if err != nil {
		return nil, err
	}
	fields := []records.Field{st.Schema.Field(st.Schema.MustIndex(st.PK))}
	fields = append(fields, st.AuxSchema().Fields()...)
	sideSchema := records.NewSchema(fields...)
	var pred expr.RowPred
	if st.Pred != nil {
		p, err := expr.CompilePred(st.Pred, st.Schema)
		if err != nil {
			return nil, err
		}
		pred = p
	}
	pkIdx := st.Schema.MustIndex(st.PK)
	auxIdx := make([]int, len(st.Aux))
	for i, a := range st.Aux {
		auxIdx[i] = st.Schema.MustIndex(a)
	}
	blobs := make([][]byte, buckets)
	fs := e.mr.FS()
	err = colstore.ScanRowTableAt(fs, dimDir, version, "", func(r records.Record) error {
		if pred != nil && !pred(r) {
			return nil
		}
		pk := r.At(pkIdx)
		vals := make([]records.Value, 0, 1+len(auxIdx))
		vals = append(vals, pk)
		for _, ix := range auxIdx {
			vals = append(vals, r.At(ix))
		}
		b := mr.BucketOf(pk, buckets)
		blobs[b] = records.AppendRecord(blobs[b], records.Make(sideSchema, vals...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for b, blob := range blobs {
		if len(blob) == 0 {
			continue
		}
		path := fmt.Sprintf("%s/bucket-%05d", sideDir, b)
		if err := fs.WriteFile(path, "", blob); err != nil {
			return nil, err
		}
	}
	return sideSchema, nil
}

// runCascadeJoinPass joins a bucketed intermediate with a bucketed side
// table as a map-only job: one map task per probe bucket, each loading
// only the matching side bucket.
func (e *Engine) runCascadeJoinPass(ctx context.Context, name string, st *plan.Step, inDir string, inSchema *records.Schema, sideDir string, sideSchema *records.Schema, output mr.OutputFormat) (*mr.JobResult, error) {
	fkIdx := inSchema.Index(st.FK)
	if fkIdx < 0 {
		return nil, fmt.Errorf("core: cascade input lacks FK %s", st.FK)
	}
	var carryIdx []int
	var auxIdx []int
	for i := 0; i < st.Out.Len(); i++ {
		nameI := st.Out.Field(i).Name
		if j := inSchema.Index(nameI); j >= 0 {
			carryIdx = append(carryIdx, j)
			continue
		}
		j := sideSchema.Index(nameI)
		if j < 0 {
			return nil, fmt.Errorf("core: cascade output column %s has no source", nameI)
		}
		auxIdx = append(auxIdx, j)
	}
	outSchema := st.Out
	job := &mr.Job{
		Name:   "clydesdale-cascade-" + name + "-" + st.Table,
		Conf:   mr.NewJobConf(),
		Input:  &colstore.BucketRowInput{Dir: inDir, Schema: inSchema},
		Output: output,
		NewMapper: func() mr.Mapper {
			return &cascadeJoinMapper{
				sideDir: sideDir, sideSchema: sideSchema,
				fkIdx: fkIdx, carryIdx: carryIdx, auxIdx: auxIdx, outSchema: outSchema,
			}
		},
		NumReduceTasks: 0,
	}
	return e.mr.Submit(ctx, job)
}

// cascadeJoinMapper probes one bucket of a driver-bucketed side table.
// The bucket arrives as the record key (BucketRowInput), so the side blob
// loads lazily on the first record and only that bucket's entries are
// ever resident — the co-partitioning payoff.
type cascadeJoinMapper struct {
	sideDir    string
	sideSchema *records.Schema
	fkIdx      int
	carryIdx   []int
	auxIdx     []int
	outSchema  *records.Schema

	ctx    *mr.TaskContext
	loaded map[int64]bool
	table  map[int64][]records.Value
}

// Setup implements mr.Mapper.
func (m *cascadeJoinMapper) Setup(ctx *mr.TaskContext) error {
	m.ctx = ctx
	m.loaded = map[int64]bool{}
	m.table = map[int64][]records.Value{}
	return nil
}

// loadBucket reads one side bucket's blob from HDFS into the probe table.
func (m *cascadeJoinMapper) loadBucket(bucket int64) error {
	if m.loaded[bucket] {
		return nil
	}
	m.loaded[bucket] = true
	start := time.Now()
	path := fmt.Sprintf("%s/bucket-%05d", m.sideDir, bucket)
	if !m.ctx.FS.Exists(path) {
		// No build rows hashed here: every probe in this bucket misses.
		return nil
	}
	data, err := m.ctx.FS.ReadAll(path, m.ctx.Node().ID())
	if err != nil {
		return err
	}
	var mem int64
	for pos := 0; pos < len(data); {
		rec, n, err := records.DecodeRecord(data[pos:], m.sideSchema)
		if err != nil {
			return err
		}
		pos += n
		vals := rec.Values()
		aux := append([]records.Value(nil), vals[1:]...)
		m.table[vals[0].Int64()] = aux
		mem += plan.MapJoinEntryBytes(aux)
		m.ctx.Counters.Add(CtrCascadeSideRows, 1)
	}
	m.ctx.Counters.Add(CtrCascadeSideLoads, 1)
	m.ctx.Counters.Add(CtrCascadeSideNanos, time.Since(start).Nanoseconds())
	m.ctx.Span(obs.PhaseHashBuild, start, "side-bucket", fmt.Sprint(bucket))
	return m.ctx.ReserveMemory(mem)
}

// Map implements mr.Mapper.
func (m *cascadeJoinMapper) Map(k, v records.Record, out mr.Collector) error {
	if err := m.loadBucket(k.At(0).Int64()); err != nil {
		return err
	}
	aux, ok := m.table[v.At(m.fkIdx).Int64()]
	if !ok {
		return nil
	}
	row := make([]records.Value, 0, len(m.carryIdx)+len(m.auxIdx))
	for _, ix := range m.carryIdx {
		row = append(row, v.At(ix))
	}
	for _, ix := range m.auxIdx {
		row = append(row, aux[ix-1])
	}
	return out.Collect(records.Record{}, records.Make(m.outSchema, row...))
}

// Cleanup implements mr.Mapper.
func (m *cascadeJoinMapper) Cleanup(mr.Collector) error { return nil }
