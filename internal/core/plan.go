package core

import (
	"context"
	"errors"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// PlanStats gathers the cost model's inputs for a logical plan: fact
// cardinality from the CIF zone maps, per-table row counts and hash-table
// footprints from the unified estimators (the star model and the boxed
// mapjoin model), and the cluster geometry. It scans each joined table
// once on the driver — every table at the version of one pinned vector —
// so call it at plan time, not per execution.
func (e *Engine) PlanStats(l *plan.Logical) (*plan.Stats, error) {
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, err
	}
	pin, err := e.Pin(sh)
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	fs := e.mr.FS()
	factRows, err := colstore.TableRowCount(fs, e.cat.FactDir)
	if err != nil {
		return nil, err
	}
	each := func(table string, fn func(records.Record) error) error {
		dir, err := e.cat.DimDir(table)
		if err != nil {
			return err
		}
		return colstore.ScanRowTableAt(fs, dir, pin.Read.Of(table), "", fn)
	}
	specs := make([]DimSpec, len(sh.Joins))
	for i := range sh.Joins {
		specs[i] = DimSpecOf(&sh.Joins[i])
	}
	hashBytes, err := EstimateDimHashBytes(specs, each)
	if err != nil {
		return nil, err
	}
	tables := make(map[string]plan.TableStats, len(sh.Joins))
	for i := range sh.Joins {
		ed := &sh.Joins[i]
		var pred expr.RowPred
		if ed.Pred != nil {
			p, err := expr.CompilePred(ed.Pred, ed.Schema)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		auxIdx := make([]int, len(ed.Aux))
		for j, a := range ed.Aux {
			auxIdx[j] = ed.Schema.MustIndex(a)
		}
		ts := plan.TableStats{HashBytes: hashBytes[i]}
		aux := make([]records.Value, len(auxIdx))
		err := each(ed.Table, func(r records.Record) error {
			ts.Rows++
			if pred != nil && !pred(r) {
				return nil
			}
			ts.FilteredRows++
			for j, ix := range auxIdx {
				aux[j] = r.At(ix)
			}
			ts.MapJoinBytes += plan.MapJoinEntryBytes(aux)
			return nil
		})
		if err != nil {
			return nil, err
		}
		tables[ed.Table] = ts
	}
	cfg := e.mr.Cluster().Config()
	return &plan.Stats{
		FactRows:      factRows,
		Tables:        tables,
		Nodes:         len(e.mr.Cluster().Nodes()),
		MapSlots:      cfg.MapSlots,
		MemoryPerNode: cfg.MemoryPerNode,
	}, nil
}

// PlanLogical runs the cost-based chooser over a bound logical plan:
// gather stats, cost every candidate (star, staged, cascade), return the
// cheapest feasible one.
func (e *Engine) PlanLogical(l *plan.Logical) (*plan.Physical, error) {
	st, err := e.PlanStats(l)
	if err != nil {
		return nil, err
	}
	return plan.Choose(l, st)
}

// RunPlan pins the vector the plan's shape reads, executes the plan over it
// (RunPlanAt) and releases the pin.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Physical) (*results.ResultSet, *Report, error) {
	if p == nil || p.Shape == nil {
		return nil, nil, fmt.Errorf("core: RunPlan needs a physical plan with a shape")
	}
	pin, err := e.Pin(p.Shape)
	if err != nil {
		return nil, nil, err
	}
	defer pin.Release()
	return e.RunPlanAt(ctx, p, pin)
}

// RunPlanAt executes a physical plan over a pinned vector: the single-pass
// star join, the staged plan, or the cascading map-side join. Every job of
// the plan, and every table built or scanned for it, reads that one vector.
// A star plan whose hash tables exceed node memory re-runs the same shape
// staged over the same vector — the §5.1 fallback, one table resident at a
// time — and the report says so (Report.Staged).
func (e *Engine) RunPlanAt(ctx context.Context, p *plan.Physical, pin *Pin) (rs *results.ResultSet, rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, done := e.traceRoot(ctx, p.Shape.Name, pin.Read)
	defer func() { done(err) }()
	switch p.Kind {
	case plan.KindStaged:
		rs, rep, err = e.runStaged(ctx, p, pin)
	case plan.KindCascade:
		rs, rep, err = e.runCascade(ctx, p, pin)
	default:
		rs, rep, err = e.runStar(ctx, p, pin)
		if err != nil && errors.Is(err, ErrOOM) && ctx.Err() == nil {
			rs, rep, err = e.runStaged(ctx, p, pin)
		}
	}
	if rep != nil {
		rep.Read = pin.Read
	}
	return rs, rep, err
}
