package hive

import (
	"context"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// runGroupByStage aggregates the final joined intermediate: map emits
// (group key, measure), a combiner pre-aggregates, reducers produce the
// final sums with core's SUM reducer. This is the separate MapReduce job
// Hive launches after the join chain (§6.3: "one for the group by").
func (e *Engine) runGroupByStage(ctx context.Context, sp *stagedPlan, in stageInput) (*mr.MemoryOutput, *mr.JobResult, error) {
	input, err := e.bigSideInput(in)
	if err != nil {
		return nil, nil, err
	}
	agg, err := expr.CompileNum(sp.agg, in.schema)
	if err != nil {
		return nil, nil, err
	}
	gschema := sp.gschema
	gIdx := make([]int, len(sp.groupBy))
	for i, g := range sp.groupBy {
		j := in.schema.Index(g)
		if j < 0 {
			return nil, nil, fmt.Errorf("hive: group column %s missing from joined schema %v", g, in.schema)
		}
		gIdx[i] = j
	}

	numReduce := e.opts.Reducers
	if len(sp.groupBy) == 0 {
		numReduce = 1
	}
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   "hive-groupby-" + sp.name,
		Conf:   mr.NewJobConf(),
		Input:  input,
		Output: out,
		NewMapper: func() mr.Mapper {
			// One output pair per task, refilled for every row.
			key, val := records.New(gschema), records.New(core.AggValueSchema)
			return mr.MapperFunc(func(_, v records.Record, out mr.Collector) error {
				for i, ix := range gIdx {
					key.Set(i, v.At(ix))
				}
				return out.Collect(key, val.Set(0, records.Float(agg(v))))
			})
		},
		NewReducer:     func() mr.Reducer { return core.SumReducer{} },
		NewCombiner:    func() mr.Reducer { return core.SumReducer{} },
		NumReduceTasks: numReduce,
		KeySchema:      gschema,
		ValueSchema:    core.AggValueSchema,
	}
	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// runOrderByStage models Hive's final single-reducer ORDER BY job (§6.3:
// "one for order by", 19–720 s): the grouped rows are written to HDFS,
// re-read by map tasks, shuffled to one reducer on the sort key, and
// emitted in order. The driver applies the authoritative ordering to the
// collected result separately; this stage exists to charge the plan's real
// cost and produce its counters.
func (e *Engine) runOrderByStage(ctx context.Context, sp *stagedPlan, rs *results.ResultSet) (*mr.JobResult, error) {
	schema := sp.resultSchema
	dir := sp.tmpDir + "/groupby-out"
	e.mr.FS().DeletePrefix(dir)
	if _, err := colstore.WriteRowTable(e.mr.FS(), dir, schema, func(emit func(records.Record) error) error {
		for _, r := range rs.Rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   "hive-orderby-" + sp.name,
		Conf:   mr.NewJobConf(),
		Input:  &colstore.RowInput{Dir: dir, Schema: schema},
		Output: out,
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_, v records.Record, c mr.Collector) error {
				return c.Collect(v, records.Record{})
			})
		},
		NewReducer: func() mr.Reducer {
			return mr.ReducerFunc(func(key records.Record, vals mr.Values, c mr.Collector) error {
				for _, ok := vals.Next(); ok; _, ok = vals.Next() {
					if err := c.Collect(key, records.Record{}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NumReduceTasks: 1,
		KeySchema:      schema,
	}
	return e.mr.Submit(ctx, job)
}
