package hive

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// The repartition (common) join: map tasks read both the big side and the
// dimension table, tag each record with its source, and emit it keyed by
// the join column; reducers collect each key's dimension row(s) and stream
// the big-side rows against them (§6.1). Both tables cross the shuffle. The
// streaming rests on an order the plan arranges: the dimension's splits come
// first in taggedInput.Splits and a reducer sees a key's values in map-task
// order, so the dimension rows of a key precede its big-side rows.

// Source tags.
const (
	tagDim  = int64(0)
	tagFact = int64(1)
)

// taggedInput unions several input formats, tagging each split with its
// source index (delivered to the mapper as the record key).
type taggedInput struct {
	sources []mr.InputFormat
}

type taggedSplit struct {
	inner  mr.InputSplit
	source int
}

func (s *taggedSplit) Locations() []string { return s.inner.Locations() }
func (s *taggedSplit) Length() int64       { return s.inner.Length() }

func (t *taggedInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	var out []mr.InputSplit
	for i, src := range t.sources {
		splits, err := src.Splits(ctx)
		if err != nil {
			return nil, err
		}
		for _, s := range splits {
			out = append(out, &taggedSplit{inner: s, source: i})
		}
	}
	return out, nil
}

func (t *taggedInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	ts, ok := split.(*taggedSplit)
	if !ok {
		return nil, fmt.Errorf("hive: taggedInput got %T split", split)
	}
	inner, err := t.sources[ts.source].Open(ts.inner, ctx)
	if err != nil {
		return nil, err
	}
	return &taggedReader{inner: inner, tag: records.Make(tagKeySchema, records.Int(int64(ts.source)))}, nil
}

var tagKeySchema = records.NewSchema(records.F("src", records.KindInt64))

type taggedReader struct {
	inner mr.RecordReader
	tag   records.Record
}

func (r *taggedReader) Next() (records.Record, records.Record, bool, error) {
	_, v, ok, err := r.inner.Next()
	return r.tag, v, ok, err
}

func (r *taggedReader) Close() error { return r.inner.Close() }

var joinKeySchema = records.NewSchema(records.F("k", records.KindInt64))

// runRepartitionStage executes one repartition join stage.
func (e *Engine) runRepartitionStage(ctx context.Context, sp *stagedPlan, st *joinStage, in stageInput) (*mr.JobResult, error) {
	bigInput, err := e.bigSideInput(in)
	if err != nil {
		return nil, err
	}
	dimDir, err := e.cat.DimDir(st.spec.Table)
	if err != nil {
		return nil, err
	}
	// The mapper reads the dimension's key, its aux columns and what its
	// predicate tests, and steps over the rest (Hive's column pruning); the
	// row groups are fetched whole all the same.
	dimCols := dimColumns(st.spec)
	dimSchema, err := st.spec.Schema.Project(dimCols...)
	if err != nil {
		return nil, err
	}
	dimInput := &colstore.RowInput{Dir: dimDir, Columns: dimCols, Schema: st.spec.Schema}

	// Compile what the mapper needs.
	var dimPred expr.RowPred
	if st.spec.Pred != nil {
		dimPred, err = expr.CompilePred(st.spec.Pred, dimSchema)
		if err != nil {
			return nil, err
		}
	}
	var factPred expr.RowPred
	if st.applyFactPred && sp.factPred != nil {
		factPred, err = expr.CompilePred(sp.factPred, in.schema)
		if err != nil {
			return nil, err
		}
	}
	dimPK := dimSchema.MustIndex(st.spec.DimPK)
	auxIdx := make([]int, len(st.spec.Aux))
	for i, a := range st.spec.Aux {
		auxIdx[i] = dimSchema.MustIndex(a)
	}
	fkIdx := in.schema.MustIndex(st.fk)
	carryIdx, err := projectionIndexes(in.schema, st.outSchema, st.auxSchema)
	if err != nil {
		return nil, err
	}

	// The tagged payloads' schemas only size them (values carry their own
	// kinds); they are built here, once per stage, not per record.
	dimPayload, factPayload := anonSchema(1+len(auxIdx)), anonSchema(1+len(carryIdx))

	job := &mr.Job{
		Name:  fmt.Sprintf("hive-rep-%s-%s", sp.name, st.spec.Table),
		Input: &taggedInput{sources: []mr.InputFormat{dimInput, bigInput}},
		Output: &colstore.RowOutput{
			Dir:    st.outDir,
			Schema: st.outSchema,
		},
		NewMapper: func() mr.Mapper {
			// One key and one payload per side and task, refilled for every
			// row: Collect serialises at once and keeps nothing.
			key := records.New(joinKeySchema)
			dimOut := records.New(dimPayload).Set(0, records.Int(tagDim))
			factOut := records.New(factPayload).Set(0, records.Int(tagFact))
			return mr.MapperFunc(func(k, v records.Record, out mr.Collector) error {
				if k.At(0).Int64() == tagDim {
					if dimPred != nil && !dimPred(v) {
						return nil
					}
					for i, ix := range auxIdx {
						dimOut.Set(1+i, v.At(ix))
					}
					return out.Collect(key.Set(0, v.At(dimPK)), dimOut)
				}
				if factPred != nil && !factPred(v) {
					return nil
				}
				for i, ix := range carryIdx {
					factOut.Set(1+i, v.At(ix))
				}
				return out.Collect(key.Set(0, v.At(fkIdx)), factOut)
			})
		},
		NewReducer:     func() mr.Reducer { return newRepartitionReducer(st.outSchema, len(auxIdx)) },
		NumReduceTasks: e.opts.Reducers,
		KeySchema:      joinKeySchema,
	}
	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	res.Counters.Add(CtrIntermediateRows, res.Counters.Get(mr.CtrReduceOutput))
	return res, nil
}

// newRepartitionReducer joins one key's values without decoding them: it
// keeps the aux bytes of the key's dimension rows (primary keys make that one
// row in practice), which arrive first, and writes every big-side row that
// follows once per kept row, as it arrives: the output's field count, the
// big-side row's carried columns, then the dimension row's aux columns, each
// value's bytes as the mapper encoded them. A value whose field count is not
// its side's is refused. So is a dimension row after a big-side row: it
// would have missed the rows already streamed past it, so it is an error and
// not a shorter answer.
func newRepartitionReducer(outSchema *records.Schema, numAux int) mr.Reducer {
	dimWidth, bigWidth := uint64(1+numAux), uint64(1+outSchema.Len()-numAux)
	header := binary.AppendUvarint(nil, uint64(outSchema.Len()))
	var dims []byte // the key's dimension rows' aux bytes, end to end
	var ends []int  // where each of those rows ends in dims
	var row []byte
	return mr.ReducerFunc(func(key records.Record, vals mr.Values, out mr.Collector) error {
		w, ok := out.(mr.EncodedCollector)
		if !ok {
			return fmt.Errorf("hive: repartition join: %T takes no encoded rows", out)
		}
		dims, ends = dims[:0], ends[:0]
		streaming := false
		for v, ok := vals.NextEncoded(); ok; v, ok = vals.NextEncoded() {
			tag, width, cols, err := untag(v)
			if err != nil {
				return fmt.Errorf("hive: repartition join: a value of key %v: %w", key, err)
			}
			if tag == tagDim {
				if width != dimWidth {
					return fmt.Errorf("hive: repartition join: a dimension row of key %v has %d values, want %d", key, width, dimWidth)
				}
				if streaming {
					return fmt.Errorf("hive: repartition join: a dimension row of key %v follows a big-side row", key)
				}
				dims = append(dims, cols...) // a copy: v is gone at the next call
				ends = append(ends, len(dims))
				continue
			}
			if width != bigWidth {
				return fmt.Errorf("hive: repartition join: a big-side row of key %v has %d values, want %d", key, width, bigWidth)
			}
			streaming = true
			start := 0
			for _, end := range ends {
				row = append(append(append(row[:0], header...), cols...), dims[start:end]...)
				if err := w.CollectEncoded(row); err != nil {
					return err
				}
				start = end
			}
		}
		return nil
	})
}

// untag splits a mapper's tagged value into its tag, its field count (the
// tag's included) and the encoded values that follow the tag.
func untag(v []byte) (tag int64, width uint64, cols []byte, err error) {
	width, n := binary.Uvarint(v)
	if n <= 0 {
		return 0, 0, nil, errors.New("bad field count")
	}
	t, m, err := records.DecodeValue(v[n:])
	if err != nil {
		return 0, 0, nil, err
	}
	if t.Kind() != records.KindInt64 {
		return 0, 0, nil, fmt.Errorf("a %s tag", t.Kind())
	}
	return t.Int64(), width, v[n+m:], nil
}

// dimColumns names the dimension columns a repartition mapper uses, in
// schema order: the primary key, the aux columns and the predicate's.
func dimColumns(spec core.DimSpec) []string {
	used := append([]string{spec.DimPK}, spec.Aux...)
	if spec.Pred != nil {
		used = spec.Pred.Columns(used)
	}
	var cols []string
	for _, name := range spec.Schema.Names() {
		if slices.Contains(used, name) {
			cols = append(cols, name)
		}
	}
	return cols
}

// bigSideInput opens the stage's big side: the pruned RCFile fact table for
// stage 1, a row-format intermediate afterwards.
func (e *Engine) bigSideInput(in stageInput) (mr.InputFormat, error) {
	if in.isFact {
		return &colstore.RCInput{Dir: in.dir, Columns: in.schema.Names(), Schema: e.cat.FactSchema}, nil
	}
	return &colstore.RowInput{Dir: in.dir, Schema: in.schema}, nil
}

// projectionIndexes maps the carried (non-aux) columns of outSchema to
// their positions in the input schema.
func projectionIndexes(in, out, aux *records.Schema) ([]int, error) {
	var idx []int
	for i := 0; i < out.Len(); i++ {
		name := out.Field(i).Name
		if aux.Has(name) {
			continue
		}
		j := in.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("hive: carried column %s missing from input %v", name, in)
		}
		idx = append(idx, j)
	}
	return idx, nil
}

// anonSchema returns a positional schema of n int-typed placeholders; used
// only to size tagged payload records, whose values carry their own kinds.
func anonSchema(n int) *records.Schema {
	fields := make([]records.Field, n)
	for i := range fields {
		fields[i] = records.F(fmt.Sprintf("f%d", i), records.KindNull)
	}
	return records.NewSchema(fields...)
}
