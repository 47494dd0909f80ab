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
// source index: the tag the repartition runner puts in front of its rows.
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
	sr, ok := inner.(spanReader)
	if !ok {
		inner.Close()
		return nil, fmt.Errorf("hive: taggedInput source %d reads no spans (%T)", ts.source, inner)
	}
	return &taggedReader{spanReader: sr, tag: ts.source}, nil
}

// spanReader is a reader that also hands out each row's fields as the bytes
// records.AppendValue wrote, valid until its next call: colstore's row and
// RC readers.
type spanReader interface {
	mr.RecordReader
	NextSpans() (spans [][]byte, ok bool, err error)
}

// taggedReader is one source's reader and the source's tag.
type taggedReader struct {
	spanReader
	tag int
}

var joinKeySchema = records.NewSchema(records.F("k", records.KindInt64))

// repartitionSide is what the repartition runner does with the rows of one
// source, whose fields it reads as spans in schema's order: it keeps the rows
// pred holds for (all when nil), and emits each keyed by the field at key
// with a value of header (the value's field count and the source's tag)
// followed by the fields at carry.
type repartitionSide struct {
	schema   *records.Schema
	key      int
	pred     expr.RowPred
	predCols []int // the fields pred reads
	carry    []int
	header   []byte
}

func newRepartitionSide(tag int64, schema *records.Schema, key string, pred expr.Pred, carry []int) (*repartitionSide, error) {
	side := &repartitionSide{
		schema: schema,
		key:    schema.Index(key),
		carry:  carry,
		header: records.AppendValue(binary.AppendUvarint(nil, uint64(1+len(carry))), records.Int(tag)),
	}
	if side.key < 0 {
		return nil, fmt.Errorf("hive: join key %s missing from %v", key, schema)
	}
	if pred != nil {
		var err error
		if side.pred, err = expr.CompilePred(pred, schema); err != nil {
			return nil, err
		}
		for _, c := range pred.Columns(nil) {
			side.predCols = append(side.predCols, schema.MustIndex(c))
		}
	}
	return side, nil
}

// repartitionRunner is the repartition stage's map task (a MapRunner, the
// extension point Clydesdale's own tasks use, §3). It decodes only a row's
// join key and the fields its side's predicate reads; the carried fields go
// to the shuffle as the reader found them, behind the side's header.
type repartitionRunner struct {
	sides []*repartitionSide // by tag
}

// Run implements mr.MapRunner.
func (r repartitionRunner) Run(ctx *mr.TaskContext, reader mr.RecordReader, out mr.Collector) error {
	tr, ok := reader.(*taggedReader)
	if !ok {
		return fmt.Errorf("hive: repartition runner got a %T", reader)
	}
	c, ok := out.(mr.EncodedValueCollector)
	if !ok {
		return fmt.Errorf("hive: repartition runner: %T takes no encoded values", out)
	}
	side := r.sides[tr.tag]
	row := records.New(side.schema) // the predicate's fields of the current row
	key := records.New(joinKeySchema)
	value := make([][]byte, 1+len(side.carry))
	value[0] = side.header
	for {
		spans, ok, err := tr.NextSpans()
		if err != nil || !ok {
			return err
		}
		if err := ctx.InputRecord(); err != nil {
			return err
		}
		if side.pred != nil {
			for _, i := range side.predCols {
				v, _, err := records.DecodeValue(spans[i])
				if err != nil {
					return err
				}
				row.Set(i, v)
			}
			if !side.pred(row) {
				continue
			}
		}
		k, _, err := records.DecodeValue(spans[side.key])
		if err != nil {
			return err
		}
		for j, i := range side.carry {
			value[1+j] = spans[i]
		}
		if err := c.CollectEncodedValue(key.Set(0, k), value...); err != nil {
			return err
		}
	}
}

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
	auxIdx := make([]int, len(st.spec.Aux))
	for i, a := range st.spec.Aux {
		auxIdx[i] = dimSchema.MustIndex(a)
	}
	carryIdx, err := projectionIndexes(in.schema, st.outSchema, st.auxSchema)
	if err != nil {
		return nil, err
	}
	var factPred expr.Pred
	if st.applyFactPred {
		factPred = sp.factPred
	}
	dimSide, err := newRepartitionSide(tagDim, dimSchema, st.spec.DimPK, st.spec.Pred, auxIdx)
	if err != nil {
		return nil, err
	}
	bigSide, err := newRepartitionSide(tagFact, in.schema, st.fk, factPred, carryIdx)
	if err != nil {
		return nil, err
	}
	runner := repartitionRunner{sides: []*repartitionSide{tagDim: dimSide, tagFact: bigSide}}

	job := &mr.Job{
		Name:           fmt.Sprintf("hive-rep-%s-%s", sp.name, st.spec.Table),
		Input:          &taggedInput{sources: []mr.InputFormat{tagDim: dimInput, tagFact: bigInput}},
		Output:         &colstore.RowOutput{Dir: st.outDir, Schema: st.outSchema},
		NewMapRunner:   func() mr.MapRunner { return runner },
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

// anonSchema returns a positional schema of n placeholders; it only sizes
// records whose values carry their own kinds, the mapjoin's broadcast
// entries.
func anonSchema(n int) *records.Schema {
	fields := make([]records.Field, n)
	for i := range fields {
		fields[i] = records.F(fmt.Sprintf("f%d", i), records.KindNull)
	}
	return records.NewSchema(fields...)
}
