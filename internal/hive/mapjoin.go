package hive

import (
	"context"
	"fmt"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// The mapjoin (broadcast) plan, Figure 6: the driver builds a hash table on
// the filtered dimension, serializes it to HDFS, and the distributed cache
// copies it to every node once per job. Each map task then loads and
// deserializes its own copy (Hive 0.7 does not reuse JVMs, so this repeats
// per task, and concurrent tasks on a node each hold a full copy in
// memory), probes the big side, and writes the joined rows — no reduce
// phase.

// runMapJoinStage executes one broadcast join stage.
func (e *Engine) runMapJoinStage(ctx context.Context, sp *stagedPlan, st *joinStage, in stageInput) (*mr.JobResult, error) {
	bigInput, err := e.bigSideInput(in)
	if err != nil {
		return nil, err
	}

	// Driver-side build: scan the dimension from HDFS (the driver is not a
	// cluster node), filter, and serialize [pk, aux...] entries.
	buildStart := time.Now()
	dimDir, err := e.cat.DimDir(st.spec.Table)
	if err != nil {
		return nil, err
	}
	var blob []byte
	entry := records.New(anonSchema(1 + len(st.spec.Aux)))
	err = selectDim(&st.spec, func(fn func(records.Record) error) error {
		return colstore.ScanRowTable(e.mr.FS(), dimDir, "", fn)
	}, func(pk records.Value, aux []records.Value) error {
		entry.Set(0, pk)
		for i, v := range aux {
			entry.Set(1+i, v)
		}
		blob = records.AppendRecord(blob, entry)
		return nil
	})
	if err != nil {
		return nil, err
	}
	buildDur := time.Since(buildStart)

	cachePath := fmt.Sprintf("%s/hashtable-%s", sp.tmpDir, st.spec.Table)
	e.mr.FS().Delete(cachePath)
	if err := e.mr.FS().WriteFile(cachePath, "", blob); err != nil {
		return nil, err
	}

	var factPred expr.RowPred
	if st.applyFactPred && sp.factPred != nil {
		factPred, err = expr.CompilePred(sp.factPred, in.schema)
		if err != nil {
			return nil, err
		}
	}
	fkIdx := in.schema.MustIndex(st.fk)
	carryIdx, err := projectionIndexes(in.schema, st.outSchema, st.auxSchema)
	if err != nil {
		return nil, err
	}

	job := &mr.Job{
		Name:       fmt.Sprintf("hive-mapjoin-%s-%s", sp.name, st.spec.Table),
		Conf:       mr.NewJobConf(), // note: no JVM reuse, default task memory
		Input:      bigInput,
		Output:     &colstore.RowOutput{Dir: st.outDir, Schema: st.outSchema},
		CacheFiles: []string{cachePath},
		NewMapper: func() mr.Mapper {
			return &mapJoinMapper{
				cachePath: cachePath,
				fkIdx:     fkIdx,
				carryIdx:  carryIdx,
				factPred:  factPred,
				outSchema: st.outSchema,
			}
		},
		NumReduceTasks: 0,
	}
	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	res.Counters.Add(CtrHashBroadcasts, 1)
	res.Counters.Add(CtrDriverBuildNanos, buildDur.Nanoseconds())
	res.Counters.Add(CtrIntermediateRows, res.Counters.Get(mr.CtrMapOutputRecords))
	return res, nil
}

// mapJoinMapper loads the broadcast hash table in Setup — once per task
// attempt, since the baseline does not reuse JVMs — and probes it per row.
type mapJoinMapper struct {
	cachePath string
	fkIdx     int
	carryIdx  []int
	factPred  expr.RowPred
	outSchema *records.Schema

	hash map[int64][]records.Value
	row  records.Record // the output row, refilled for every match
}

// Setup implements mr.Mapper: deserialize the hash table and account its
// memory against the task's slot allowance. This is the per-task redundant
// work §6.3 quantifies (4,887 loads for Hive vs 8 builds for Clydesdale).
func (m *mapJoinMapper) Setup(ctx *mr.TaskContext) error {
	start := time.Now()
	data, err := ctx.CacheFile(m.cachePath)
	if err != nil {
		return err
	}
	m.hash = make(map[int64][]records.Value)
	var memBytes int64
	pos := 0
	for pos < len(data) {
		rec, n, err := records.DecodeRecord(data[pos:], nil)
		if err != nil {
			return fmt.Errorf("hive: corrupt mapjoin hash table: %w", err)
		}
		pos += n
		vals := rec.Values()
		aux := append([]records.Value(nil), vals[1:]...)
		m.hash[vals[0].Int64()] = aux
		memBytes += plan.MapJoinEntryBytes(aux)
	}
	if err := ctx.ReserveMemory(memBytes); err != nil {
		return fmt.Errorf("hive: mapjoin hash table for %s: %w", m.cachePath, err)
	}
	m.row = records.New(m.outSchema)
	ctx.Counters.Add(CtrHashLoads, 1)
	ctx.Counters.Add(CtrHashLoadNanos, time.Since(start).Nanoseconds())
	return nil
}

// Map implements mr.Mapper.
func (m *mapJoinMapper) Map(_, v records.Record, out mr.Collector) error {
	if m.factPred != nil && !m.factPred(v) {
		return nil
	}
	aux, ok := m.hash[v.At(m.fkIdx).Int64()]
	if !ok {
		return nil
	}
	for i, ix := range m.carryIdx {
		m.row.Set(i, v.At(ix))
	}
	copy(m.row.Values()[len(m.carryIdx):], aux)
	return out.Collect(records.Record{}, m.row)
}

// Cleanup implements mr.Mapper.
func (m *mapJoinMapper) Cleanup(mr.Collector) error { return nil }

// EstimateMapJoinHashBytes computes the memory one deserialized mapjoin
// hash-table copy occupies per listed dimension (in order), by
// evaluating the dimension predicates over rows supplied by each(table).
// The per-entry model is plan.MapJoinEntryBytes — the boxed map
// mapJoinMapper.Setup builds — which keeps this estimate and Setup's
// runtime accounting in exact agreement; the benchmark harness calibrates
// the §6.4 OOM budgets from it: each mapjoin task holds one dimension at a
// time, so its constraint is the *maximum* dimension.
func EstimateMapJoinHashBytes(dims []core.DimSpec, each func(table string, fn func(records.Record) error) error) ([]int64, error) {
	out := make([]int64, len(dims))
	for i := range dims {
		err := selectDim(&dims[i], func(fn func(records.Record) error) error {
			return each(dims[i].Table, fn)
		}, func(_ records.Value, aux []records.Value) error {
			out[i] += plan.MapJoinEntryBytes(aux)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selectDim is the mapjoin build's row-wise dimension filter: it walks
// rows, a source of the dimension's records, and hands fn the key and the
// aux values of every row that passes d.Pred. aux is one slice refilled per
// row; fn must not keep it.
func selectDim(d *core.DimSpec, rows func(fn func(records.Record) error) error, fn func(pk records.Value, aux []records.Value) error) error {
	var pred expr.RowPred
	if d.Pred != nil {
		var err error
		if pred, err = expr.CompilePred(d.Pred, d.Schema); err != nil {
			return err
		}
	}
	pkIx := d.Schema.Index(d.DimPK)
	if pkIx < 0 {
		return fmt.Errorf("hive: dim %s has no column %s", d.Table, d.DimPK)
	}
	auxIx := make([]int, len(d.Aux))
	for i, a := range d.Aux {
		auxIx[i] = d.Schema.MustIndex(a)
	}
	aux := make([]records.Value, len(auxIx))
	return rows(func(r records.Record) error {
		if pred != nil && !pred(r) {
			return nil
		}
		for i, ix := range auxIx {
			aux[i] = r.At(ix)
		}
		return fn(r.At(pkIx), aux)
	})
}
