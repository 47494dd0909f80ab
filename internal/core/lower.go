package core

import "clydesdale/internal/plan"

// LogicalOf lifts a star Query into the shared logical-plan IR: a filtered
// fact scan, one join per dimension in declaration order, the grouped SUM,
// and the optional ordering. The catalog supplies the fact's name; dims
// carry their own schemas.
func LogicalOf(q *Query, cat *Catalog) (*plan.Logical, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	factName := cat.FactName
	if factName == "" {
		factName = "fact"
	}
	var n plan.Node = &plan.Scan{Table: factName, Source: cat.FactSchema, Fact: true}
	if q.FactPred != nil {
		n = &plan.Filter{Input: n, Pred: q.FactPred}
	}
	for i := range q.Dims {
		d := &q.Dims[i]
		var right plan.Node = &plan.Scan{Table: d.Table, Source: d.Schema}
		if d.Pred != nil {
			right = &plan.Filter{Input: right, Pred: d.Pred}
		}
		n = &plan.Join{Left: n, Right: right, LeftKey: d.FactFK, RightKey: d.DimPK}
	}
	n = &plan.Aggregate{Input: n, Agg: q.AggExpr, AggName: q.AggName, GroupBy: q.GroupBy}
	if len(q.OrderBy) > 0 {
		keys := make([]plan.OrderKey, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i] = plan.OrderKey{Col: k.Col, Desc: k.Desc}
		}
		n = &plan.Order{Input: n, Keys: keys}
	}
	name := q.Name
	if name == "" {
		name = "query"
	}
	return &plan.Logical{Name: name, Root: n}, nil
}

// DimSpecOf is the build spec of one join edge: what hash table to build
// over which table. Every lowering that builds from the plan IR goes through
// it.
func DimSpecOf(e *plan.JoinEdge) DimSpec {
	return DimSpec{Table: e.Table, Schema: e.Schema, FactFK: e.FK, DimPK: e.PK, Pred: e.Pred, Aux: e.Aux}
}
