// Package plan is the shared logical-plan IR that sits between the SQL
// binder and the execution engines. A query binds into a tree of scan /
// filter / join / aggregate / order nodes; Decompose canonicalizes the tree
// into a Shape (fact scan + join pipeline + aggregation), Pipeline turns the
// join tree into an ordered pipeline of Steps with resolved column liveness,
// and Lower cuts that pipeline into the MapReduce passes Clydesdale runs,
// one job each: the single star-join job, or one pass per snowflake depth
// level. The Hive baseline lowers the same Shape its own way.
//
// The package deliberately depends only on the expression and record
// layers, so the engines (core, hive), the binder (sql) and the schema
// generators (ssb) can all share it without cycles.
package plan

import (
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// Node is one operator of the logical plan tree.
type Node interface {
	// Schema is the operator's output schema.
	Schema() *records.Schema
}

// Scan reads one table.
type Scan struct {
	Table string
	// Source is the table's full schema; projection is derived later from
	// liveness, not declared here.
	Source *records.Schema
	// Fact marks the scan of the plan's fact (big) table.
	Fact bool
}

// Schema implements Node.
func (s *Scan) Schema() *records.Schema { return s.Source }

// Filter keeps the input rows satisfying Pred.
type Filter struct {
	Input Node
	Pred  expr.Pred
}

// Schema implements Node.
func (f *Filter) Schema() *records.Schema { return f.Input.Schema() }

// Join is an equi-join. Left is the probe (big) side, Right the build
// (small) side; LeftKey must be a column of the left subtree's schema and
// RightKey a column of the right one. Snowflake chains are expressed
// left-deep: a sub-dimension's LeftKey names a column that an earlier join
// carried up from its parent dimension.
type Join struct {
	Left, Right       Node
	LeftKey, RightKey string
}

// Schema implements Node: the concatenation of both input schemas. Column
// names must be globally unique (Decompose rejects ambiguity), with one
// exception: a build-side key spelled like the probe key is equal to it by
// the join condition, so the output carries the probe side's copy only.
func (j *Join) Schema() *records.Schema {
	fields := append([]records.Field(nil), j.Left.Schema().Fields()...)
	for _, f := range j.Right.Schema().Fields() {
		if f.Name == j.RightKey && j.RightKey == j.LeftKey {
			continue
		}
		fields = append(fields, f)
	}
	return records.NewSchema(fields...)
}

// Aggregate computes one SUM measure over the input, grouped by GroupBy
// columns.
type Aggregate struct {
	Input   Node
	Agg     expr.Expr // SUM argument
	AggName string    // output column name
	GroupBy []string
}

// Schema implements Node: group columns followed by the float aggregate.
func (a *Aggregate) Schema() *records.Schema {
	in := a.Input.Schema()
	fields := make([]records.Field, 0, len(a.GroupBy)+1)
	for _, g := range a.GroupBy {
		kind := records.KindString
		if i := in.Index(g); i >= 0 {
			kind = in.Field(i).Kind
		}
		fields = append(fields, records.F(g, kind))
	}
	fields = append(fields, records.F(a.AggName, records.KindFloat64))
	return records.NewSchema(fields...)
}

// Order sorts the input.
type Order struct {
	Input Node
	Keys  []OrderKey
}

// Schema implements Node.
func (o *Order) Schema() *records.Schema { return o.Input.Schema() }

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Col  string
	Desc bool
}

// Logical is a bound logical plan: what sql.Parse returns and what the
// engines lower.
type Logical struct {
	Name string
	Root Node
}
