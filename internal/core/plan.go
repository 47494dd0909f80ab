package core

import (
	"context"
	"errors"
	"fmt"

	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// PlanStats checks that l lowers and returns the empty argument plan.Choose
// takes; the repository benchmark's plan.choose_ms probe
// (benchmark/probes.go) is its one caller.
func (e *Engine) PlanStats(l *plan.Logical) (*plan.Stats, error) {
	_, err := plan.Lower(l)
	return &plan.Stats{}, err
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

// RunPlanAt executes a physical plan over a pinned vector: the single star
// join job, or the plan's join passes and the aggregation job. Every job of
// the plan, and every table built or scanned for it, reads that one vector.
// A plan whose pass holds more hash tables than node memory re-runs over the
// same vector with one step per pass — the §5.1 fallback, one table resident
// at a time — and the report says so (Report.Staged, Report.Passes).
func (e *Engine) RunPlanAt(ctx context.Context, p *plan.Physical, pin *Pin) (rs *results.ResultSet, rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, done := e.traceRoot(ctx, p.Shape.Name, pin.Read)
	defer func() { done(rep, err) }()
	rs, rep, err = e.run(ctx, p, pin)
	if err != nil && errors.Is(err, ErrOOM) && ctx.Err() == nil && len(p.Passes) < len(p.Steps) {
		rs, rep, err = e.run(ctx, p.OneStepPerPass(), pin)
	}
	if rep != nil {
		rep.Read = pin.Read
	}
	return rs, rep, err
}

// run executes p as lowered, with no fallback.
func (e *Engine) run(ctx context.Context, p *plan.Physical, pin *Pin) (*results.ResultSet, *Report, error) {
	if p.Kind == plan.KindStaged {
		return e.runStaged(ctx, p, pin)
	}
	return e.runStar(ctx, p, pin)
}
