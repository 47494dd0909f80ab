package refexec

import (
	"fmt"

	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// RunLogical evaluates a bound logical plan directly over rows supplied by
// each(table), interpreting the tree node by node: scans materialize, joins
// are plain in-memory inner hash joins, the aggregate groups and sums. It
// deliberately shares nothing with plan.Decompose or the engine lowerings —
// no liveness, partitioning, or strategy logic — so it can serve as the
// oracle the snowflake property tests hold every physical strategy to.
func RunLogical(l *plan.Logical, each func(table string, fn func(records.Record) error) error) (*results.ResultSet, error) {
	if l == nil || l.Root == nil {
		return nil, fmt.Errorf("refexec: nil logical plan")
	}
	rows, err := evalNode(l.Root, each)
	if err != nil {
		return nil, err
	}
	rs := &results.ResultSet{Schema: l.Root.Schema(), Rows: rows}

	// Deterministic output: honor the plan's ORDER BY, else sort by the
	// group columns ascending (the convention refexec.Run shares).
	var orders []results.Order
	node := l.Root
	if o, ok := node.(*plan.Order); ok {
		for _, k := range o.Keys {
			orders = append(orders, results.Order{Col: k.Col, Desc: k.Desc})
		}
		node = o.Input
	}
	if len(orders) == 0 {
		if a, ok := node.(*plan.Aggregate); ok {
			for _, g := range a.GroupBy {
				orders = append(orders, results.Order{Col: g})
			}
		}
	}
	if len(orders) > 0 {
		if err := rs.Sort(orders); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// evalNode returns the node's full materialized output.
func evalNode(n plan.Node, each func(table string, fn func(records.Record) error) error) ([]records.Record, error) {
	switch t := n.(type) {
	case *plan.Scan:
		var rows []records.Record
		err := each(t.Table, func(r records.Record) error {
			rows = append(rows, r.Clone())
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("refexec: scanning %s: %w", t.Table, err)
		}
		return rows, nil

	case *plan.Filter:
		in, err := evalNode(t.Input, each)
		if err != nil {
			return nil, err
		}
		pred, err := expr.CompilePred(t.Pred, t.Input.Schema())
		if err != nil {
			return nil, err
		}
		var rows []records.Record
		for _, r := range in {
			if pred(r) {
				rows = append(rows, r)
			}
		}
		return rows, nil

	case *plan.Join:
		left, err := evalNode(t.Left, each)
		if err != nil {
			return nil, err
		}
		right, err := evalNode(t.Right, each)
		if err != nil {
			return nil, err
		}
		lIx := t.Left.Schema().MustIndex(t.LeftKey)
		rIx := t.Right.Schema().MustIndex(t.RightKey)
		build := make(map[string][]records.Record, len(right))
		for _, r := range right {
			k := string(records.AppendValue(nil, r.At(rIx)))
			build[k] = append(build[k], r)
		}
		schema := t.Schema()
		var rows []records.Record
		for _, l := range left {
			matches := build[string(records.AppendValue(nil, l.At(lIx)))]
			for _, r := range matches {
				vals := make([]records.Value, 0, schema.Len())
				vals = append(vals, l.Values()...)
				for i, v := range r.Values() {
					if i == rIx && t.RightKey == t.LeftKey {
						continue // same-named key: Join.Schema keeps the left copy only
					}
					vals = append(vals, v)
				}
				rows = append(rows, records.Make(schema, vals...))
			}
		}
		return rows, nil

	case *plan.Aggregate:
		in, err := evalNode(t.Input, each)
		if err != nil {
			return nil, err
		}
		inSchema := t.Input.Schema()
		agg, err := expr.CompileNum(t.Agg, inSchema)
		if err != nil {
			return nil, err
		}
		gIdx := make([]int, len(t.GroupBy))
		for i, g := range t.GroupBy {
			gIdx[i] = inSchema.MustIndex(g)
		}
		type groupState struct {
			key []records.Value
			sum float64
		}
		groups := map[string]*groupState{}
		var order []string // first-appearance order for determinism
		for _, r := range in {
			var keyStr string
			key := make([]records.Value, len(gIdx))
			for i, ix := range gIdx {
				key[i] = r.At(ix)
				keyStr = string(records.AppendValue([]byte(keyStr), key[i]))
			}
			g, ok := groups[keyStr]
			if !ok {
				g = &groupState{key: key}
				groups[keyStr] = g
				order = append(order, keyStr)
			}
			g.sum += agg(r)
		}
		schema := t.Schema()
		if len(groups) == 0 && len(t.GroupBy) == 0 {
			// Grand aggregate over an empty input: one zero row, the
			// contract all executors share.
			return []records.Record{records.Make(schema, records.Float(0))}, nil
		}
		rows := make([]records.Record, 0, len(groups))
		for _, k := range order {
			g := groups[k]
			vals := append(append([]records.Value(nil), g.key...), records.Float(g.sum))
			rows = append(rows, records.Make(schema, vals...))
		}
		return rows, nil

	case *plan.Order:
		// Ordering is applied by RunLogical on the final result set.
		return evalNode(t.Input, each)

	default:
		return nil, fmt.Errorf("refexec: unknown plan node %T", n)
	}
}
