package ssb

import (
	"fmt"
	"strings"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// The SSB queries are expressed in the engine-neutral star-query model of
// package core; these aliases keep the workload code readable.
type (
	// Query is core.Query.
	Query = core.Query
	// DimSpec is core.DimSpec.
	DimSpec = core.DimSpec
	// OrderKey is core.OrderKey.
	OrderKey = core.OrderKey
)

func years(lo, hi int64) expr.Pred {
	return expr.Between(expr.Col("d_year"), records.Int(lo), records.Int(hi))
}

func asc(cols ...string) []OrderKey {
	out := make([]OrderKey, len(cols))
	for i, c := range cols {
		out[i] = OrderKey{Col: c}
	}
	return out
}

// Queries returns the 13 SSB queries in flight order (Q1.1 … Q4.3), with
// dimension schemas resolved.
func Queries() []*Query {
	qs := rawQueries()
	for _, q := range qs {
		for i := range q.Dims {
			q.Dims[i].Schema = SchemaOf(q.Dims[i].Table)
		}
	}
	return qs
}

func rawQueries() []*Query {
	sumRevenue := expr.Col("lo_revenue")
	profit := expr.Sub(expr.Col("lo_revenue"), expr.Col("lo_supplycost"))
	revXdisc := expr.Mul(expr.Col("lo_extendedprice"), expr.Col("lo_discount"))
	ukCities := expr.In(expr.Col("c_city"), records.Str("UNITED KI1"), records.Str("UNITED KI5"))
	ukCitiesS := expr.In(expr.Col("s_city"), records.Str("UNITED KI1"), records.Str("UNITED KI5"))

	return []*Query{
		// ---- Flight 1: fact-predicate scans joined with date only.
		{
			Name: "Q1.1",
			Dims: []DimSpec{{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
				Pred: expr.Eq(expr.Col("d_year"), expr.ConstInt(1993))}},
			FactPred: expr.And(
				expr.Between(expr.Col("lo_discount"), records.Int(1), records.Int(3)),
				expr.Lt(expr.Col("lo_quantity"), expr.ConstInt(25)),
			),
			AggExpr: revXdisc, AggName: "revenue",
		},
		{
			Name: "Q1.2",
			Dims: []DimSpec{{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
				Pred: expr.Eq(expr.Col("d_yearmonthnum"), expr.ConstInt(199401))}},
			FactPred: expr.And(
				expr.Between(expr.Col("lo_discount"), records.Int(4), records.Int(6)),
				expr.Between(expr.Col("lo_quantity"), records.Int(26), records.Int(35)),
			),
			AggExpr: revXdisc, AggName: "revenue",
		},
		{
			Name: "Q1.3",
			Dims: []DimSpec{{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
				Pred: expr.And(
					expr.Eq(expr.Col("d_weeknuminyear"), expr.ConstInt(6)),
					expr.Eq(expr.Col("d_year"), expr.ConstInt(1994)),
				)}},
			FactPred: expr.And(
				expr.Between(expr.Col("lo_discount"), records.Int(5), records.Int(7)),
				expr.Between(expr.Col("lo_quantity"), records.Int(26), records.Int(35)),
			),
			AggExpr: revXdisc, AggName: "revenue",
		},

		// ---- Flight 2: part × supplier × date.
		{
			Name: "Q2.1",
			// Dimension order follows the SSB FROM clause (date, part,
			// supplier), which is the order Hive 0.7 joins in — the
			// unfiltered date join coming first is what makes the baseline's
			// stage-1 intermediate as large as the fact table (§6.3).
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey", Aux: []string{"d_year"}},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.Eq(expr.Col("p_category"), expr.ConstStr("MFGR#12")), Aux: []string{"p_brand1"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("AMERICA"))},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"d_year", "p_brand1"},
			OrderBy: asc("d_year", "p_brand1"),
		},
		{
			Name: "Q2.2",
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey", Aux: []string{"d_year"}},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.Between(expr.Col("p_brand1"), records.Str("MFGR#2221"), records.Str("MFGR#2228")),
					Aux:  []string{"p_brand1"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("ASIA"))},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"d_year", "p_brand1"},
			OrderBy: asc("d_year", "p_brand1"),
		},
		{
			Name: "Q2.3",
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey", Aux: []string{"d_year"}},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.Eq(expr.Col("p_brand1"), expr.ConstStr("MFGR#2239")), Aux: []string{"p_brand1"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("EUROPE"))},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"d_year", "p_brand1"},
			OrderBy: asc("d_year", "p_brand1"),
		},

		// ---- Flight 3: customer × supplier × date (the paper's §4.2 example
		// is Q3.1).
		{
			Name: "Q3.1",
			Dims: []DimSpec{
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: expr.Eq(expr.Col("c_region"), expr.ConstStr("ASIA")), Aux: []string{"c_nation"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("ASIA")), Aux: []string{"s_nation"}},
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: years(1992, 1997), Aux: []string{"d_year"}},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"c_nation", "s_nation", "d_year"},
			OrderBy: []OrderKey{{Col: "d_year"}, {Col: "revenue", Desc: true}},
		},
		{
			Name: "Q3.2",
			Dims: []DimSpec{
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: expr.Eq(expr.Col("c_nation"), expr.ConstStr("UNITED STATES")), Aux: []string{"c_city"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_nation"), expr.ConstStr("UNITED STATES")), Aux: []string{"s_city"}},
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: years(1992, 1997), Aux: []string{"d_year"}},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"c_city", "s_city", "d_year"},
			OrderBy: []OrderKey{{Col: "d_year"}, {Col: "revenue", Desc: true}},
		},
		{
			Name: "Q3.3",
			Dims: []DimSpec{
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: ukCities, Aux: []string{"c_city"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: ukCitiesS, Aux: []string{"s_city"}},
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: years(1992, 1997), Aux: []string{"d_year"}},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"c_city", "s_city", "d_year"},
			OrderBy: []OrderKey{{Col: "d_year"}, {Col: "revenue", Desc: true}},
		},
		{
			Name: "Q3.4",
			Dims: []DimSpec{
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: ukCities, Aux: []string{"c_city"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: ukCitiesS, Aux: []string{"s_city"}},
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: expr.Eq(expr.Col("d_yearmonth"), expr.ConstStr("Dec1997")), Aux: []string{"d_year"}},
			},
			AggExpr: sumRevenue, AggName: "revenue",
			GroupBy: []string{"c_city", "s_city", "d_year"},
			OrderBy: []OrderKey{{Col: "d_year"}, {Col: "revenue", Desc: true}},
		},

		// ---- Flight 4: all four dimensions.
		{
			Name: "Q4.1",
			// FROM-clause order (date, customer, supplier, part), as Hive
			// joins it.
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey", Aux: []string{"d_year"}},
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: expr.Eq(expr.Col("c_region"), expr.ConstStr("AMERICA")), Aux: []string{"c_nation"}},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("AMERICA"))},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.In(expr.Col("p_mfgr"), records.Str("MFGR#1"), records.Str("MFGR#2"))},
			},
			AggExpr: profit, AggName: "profit",
			GroupBy: []string{"d_year", "c_nation"},
			OrderBy: asc("d_year", "c_nation"),
		},
		{
			Name: "Q4.2",
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: expr.In(expr.Col("d_year"), records.Int(1997), records.Int(1998)), Aux: []string{"d_year"}},
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: expr.Eq(expr.Col("c_region"), expr.ConstStr("AMERICA"))},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_region"), expr.ConstStr("AMERICA")), Aux: []string{"s_nation"}},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.In(expr.Col("p_mfgr"), records.Str("MFGR#1"), records.Str("MFGR#2")),
					Aux:  []string{"p_category"}},
			},
			AggExpr: profit, AggName: "profit",
			GroupBy: []string{"d_year", "s_nation", "p_category"},
			OrderBy: asc("d_year", "s_nation", "p_category"),
		},
		{
			Name: "Q4.3",
			Dims: []DimSpec{
				{Table: TableDate, FactFK: "lo_orderdate", DimPK: "d_datekey",
					Pred: expr.In(expr.Col("d_year"), records.Int(1997), records.Int(1998)), Aux: []string{"d_year"}},
				{Table: TableCustomer, FactFK: "lo_custkey", DimPK: "c_custkey",
					Pred: expr.Eq(expr.Col("c_region"), expr.ConstStr("AMERICA"))},
				{Table: TableSupplier, FactFK: "lo_suppkey", DimPK: "s_suppkey",
					Pred: expr.Eq(expr.Col("s_nation"), expr.ConstStr("UNITED STATES")), Aux: []string{"s_city"}},
				{Table: TablePart, FactFK: "lo_partkey", DimPK: "p_partkey",
					Pred: expr.Eq(expr.Col("p_category"), expr.ConstStr("MFGR#14")), Aux: []string{"p_brand1"}},
			},
			AggExpr: profit, AggName: "profit",
			GroupBy: []string{"d_year", "s_city", "p_brand1"},
			OrderBy: asc("d_year", "s_city", "p_brand1"),
		},
	}
}

// QueryByName returns the named query (case-insensitive, e.g. "q3.1").
func QueryByName(name string) (*Query, error) {
	for _, q := range Queries() {
		if strings.EqualFold(q.Name, name) {
			return q, nil
		}
	}
	return nil, fmt.Errorf("ssb: unknown query %q", name)
}
