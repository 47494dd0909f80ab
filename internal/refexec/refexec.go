// Package refexec is a trusted, single-process reference executor for SSB
// star queries: it evaluates a query directly over the generator's tables
// with plain in-memory hash joins, with no MapReduce, storage formats or
// distribution involved. The integration tests hold both the Clydesdale
// engine and the Hive baseline to its answers.
package refexec

import (
	"fmt"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// Run evaluates the query against data from gen and returns the ordered
// result set.
func Run(gen *ssb.Generator, q *ssb.Query) (*results.ResultSet, error) {
	// Build one filtered hash table per dimension: pk → aux values.
	type dimHash struct {
		spec *ssb.DimSpec
		m    map[int64][]records.Value
		fkIx int
	}
	factSchema := ssb.LineorderSchema
	dims := make([]*dimHash, len(q.Dims))
	for i := range q.Dims {
		spec := &q.Dims[i]
		schema := ssb.SchemaOf(spec.Table)
		var pred expr.RowPred
		if spec.Pred != nil {
			p, err := expr.CompilePred(spec.Pred, schema)
			if err != nil {
				return nil, fmt.Errorf("refexec: %s: %w", spec.Table, err)
			}
			pred = p
		}
		pkIx := schema.MustIndex(spec.DimPK)
		auxIx := make([]int, len(spec.Aux))
		for j, a := range spec.Aux {
			auxIx[j] = schema.MustIndex(a)
		}
		h := &dimHash{spec: spec, m: make(map[int64][]records.Value), fkIx: factSchema.MustIndex(spec.FactFK)}
		if err := gen.Each(spec.Table, func(r records.Record) error {
			if pred != nil && !pred(r) {
				return nil
			}
			aux := make([]records.Value, len(auxIx))
			for j, ix := range auxIx {
				aux[j] = r.At(ix)
			}
			h.m[r.At(pkIx).Int64()] = aux
			return nil
		}); err != nil {
			return nil, err
		}
		dims[i] = h
	}

	var factPred expr.RowPred
	if q.FactPred != nil {
		p, err := expr.CompilePred(q.FactPred, factSchema)
		if err != nil {
			return nil, err
		}
		factPred = p
	}
	agg, err := expr.CompileNum(q.AggExpr, factSchema)
	if err != nil {
		return nil, err
	}

	// Map group-by columns to (dim index, aux index).
	type keySrc struct{ dim, aux int }
	keySrcs := make([]keySrc, len(q.GroupBy))
	for gi, gcol := range q.GroupBy {
		found := false
		for di, d := range dims {
			for ai, aux := range d.spec.Aux {
				if aux == gcol {
					keySrcs[gi] = keySrc{dim: di, aux: ai}
					found = true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("refexec: group column %s not provided by any dimension", gcol)
		}
	}

	type groupState struct {
		key []records.Value
		sum float64
	}
	groups := map[string]*groupState{}
	auxRow := make([][]records.Value, len(dims))

	err = gen.Each(ssb.TableLineorder, func(r records.Record) error {
		if factPred != nil && !factPred(r) {
			return nil
		}
		for i, d := range dims {
			aux, ok := d.m[r.At(d.fkIx).Int64()]
			if !ok {
				return nil // early-out
			}
			auxRow[i] = aux
		}
		var keyStr string
		key := make([]records.Value, len(keySrcs))
		for gi, src := range keySrcs {
			v := auxRow[src.dim][src.aux]
			key[gi] = v
			keyStr += v.String() + "\x00"
		}
		g, ok := groups[keyStr]
		if !ok {
			g = &groupState{key: key}
			groups[keyStr] = g
		}
		g.sum += agg(r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	schema := q.ResultSchema()
	rs := &results.ResultSet{Schema: schema}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		// Grand aggregate over an empty input: one zero row, the contract
		// all three executors share.
		groups[""] = &groupState{}
	}
	for _, g := range groups {
		vals := append(append([]records.Value(nil), g.key...), records.Float(g.sum))
		rs.Rows = append(rs.Rows, records.Make(schema, vals...))
	}
	orders := make([]results.Order, len(q.OrderBy))
	for i, o := range q.OrderBy {
		orders[i] = results.Order{Col: o.Col, Desc: o.Desc}
	}
	if len(orders) == 0 {
		// Deterministic output for group-less or unordered queries.
		for _, g := range q.GroupBy {
			orders = append(orders, results.Order{Col: g})
		}
	}
	if len(orders) > 0 {
		if err := rs.Sort(orders); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
