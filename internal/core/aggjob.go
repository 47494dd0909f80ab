package core

import (
	"context"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// runAggJob is the final job of the staged executor: the shape's grouped SUM
// over the row-table intermediate its last join pass wrote.
func (e *Engine) runAggJob(ctx context.Context, name string, sh *plan.Shape, in *colstore.RowInput) (*mr.MemoryOutput, *mr.JobResult, error) {
	aggFn, err := expr.CompileNum(sh.Agg, in.Schema)
	if err != nil {
		return nil, nil, err
	}
	gIdx := make([]int, len(sh.GroupBy))
	for i, g := range sh.GroupBy {
		if gIdx[i] = in.Schema.Index(g); gIdx[i] < 0 {
			return nil, nil, fmt.Errorf("core: aggregation input lacks group column %s", g)
		}
	}
	gschema := sh.GroupSchema()
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   name,
		Conf:   mr.NewJobConf(),
		Input:  in,
		Output: out,
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_, v records.Record, c mr.Collector) error {
				keyVals := make([]records.Value, len(gIdx))
				for i, ix := range gIdx {
					keyVals[i] = v.At(ix)
				}
				return c.Collect(records.Make(gschema, keyVals...),
					records.Make(aggValueSchema, records.Float(aggFn(v))))
			})
		},
	}
	e.sumJob(job, sh)
	res, err := e.mr.Submit(ctx, job)
	return out, res, err
}

// collectRows turns grouped-SUM reduce output into a result set.
func collectRows(schema *records.Schema, grouped bool, out *mr.MemoryOutput) *results.ResultSet {
	rs := &results.ResultSet{Schema: schema}
	pairs := out.Pairs()
	if len(pairs) == 0 && !grouped {
		// Grand aggregate over an empty selection: one zero row.
		rs.Rows = append(rs.Rows, records.Make(schema, records.Float(0)))
		return rs
	}
	for _, kv := range pairs {
		vals := make([]records.Value, 0, schema.Len())
		vals = append(vals, kv.Key.Values()...)
		vals = append(vals, records.Float(kv.Value.At(0).Float64()))
		rs.Rows = append(rs.Rows, records.Make(schema, vals...))
	}
	return rs
}
