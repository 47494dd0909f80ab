package hive

import (
	"fmt"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// stagedPlan is the executable form of a bound logical plan: one joinStage
// per join edge in bind order, then a group-by job and (if ordered) an
// order-by job. It is produced by lowering the shared IR — column liveness
// (which FK and predicate-only columns each stage drops) comes from
// plan.Shape.Linearize, not from re-deriving ownership here.
type stagedPlan struct {
	name         string
	tmpDir       string
	factRead     *records.Schema // columns stage 1 reads from the fact table
	factPred     expr.Pred
	agg          expr.Expr
	groupBy      []string
	gschema      *records.Schema
	resultSchema *records.Schema
	orders       []results.Order
	hasOrderBy   bool
	joins        []joinStage
}

// joinStage is one two-way join job. The liveness-derived schemas come from
// the IR's pipeline step: outSchema is the step's output (carried columns
// then this table's aux columns), auxSchema types just the aux columns.
type joinStage struct {
	spec          core.DimSpec
	fk            string
	auxSchema     *records.Schema
	outDir        string
	outSchema     *records.Schema
	applyFactPred bool
}

// stageInput names the big side of a stage: the fact table for stage 1, the
// previous stage's row-format intermediate afterwards.
type stageInput struct {
	dir    string
	schema *records.Schema
	isFact bool
}

// lower compiles a bound logical plan into the staged plan. Unlike the star
// executor, the Hive baseline handles snowflake chains naturally: a deep
// edge's FK is just a column of the running intermediate, carried by the
// pipeline steps until its join consumes it.
func (e *Engine) lower(l *plan.Logical) (*stagedPlan, error) {
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, err
	}
	steps, err := sh.Linearize()
	if err != nil {
		return nil, err
	}
	sp := &stagedPlan{
		name:         sh.Name,
		tmpDir:       fmt.Sprintf("%s/%s-%s-%d", tmpRoot, sh.Name, e.opts.Strategy, e.seq.Add(1)),
		factPred:     sh.FactPred,
		agg:          sh.Agg,
		groupBy:      sh.GroupBy,
		gschema:      sh.GroupSchema(),
		resultSchema: sh.ResultSchema(),
		orders:       core.Orders(sh),
		hasOrderBy:   len(sh.OrderBy) > 0,
	}
	if sp.factRead, err = sh.FactRead(); err != nil {
		return nil, err
	}
	for i := range steps {
		st := &steps[i]
		sp.joins = append(sp.joins, joinStage{
			spec:          core.DimSpecOf(&st.JoinEdge),
			fk:            st.FK,
			auxSchema:     st.AuxSchema(),
			outDir:        fmt.Sprintf("%s/stage-%d", sp.tmpDir, i+1),
			outSchema:     st.Out,
			applyFactPred: st.ApplyFactPred,
		})
	}
	return sp, nil
}
