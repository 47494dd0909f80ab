package plan_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// fingerprintCases are the statements the fingerprint golden pins: the 13
// SSB queries, the 18 generated snowflake queries of EXPERIMENTS.md
// "Snowflake lowering" (six GenSnowflake seeds × three queries), and a few
// hand-made variants that reach the renderings SSB does not: nested and
// repeated conjuncts, float constants, a quote inside a string, <>, >, IN
// over numbers, every arithmetic operator, and a plan with no predicate.
func fingerprintCases(t *testing.T) []*plan.Logical {
	t.Helper()
	cat := ssbPlanCatalog()
	lift := func(q *core.Query) *plan.Logical {
		t.Helper()
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		return l
	}
	var out []*plan.Logical
	for _, q := range ssb.Queries() {
		out = append(out, lift(q))
	}
	for _, seed := range []uint64{7, 23, 101, 5, 11, 42} {
		snow := ssb.GenSnowflake(seed, 1000)
		for qi := int64(0); qi < 3; qi++ {
			l := snow.RandomSnowQuery(qi)
			l.Name = fmt.Sprintf("snow-%d/q%d", seed, qi)
			out = append(out, l)
		}
	}

	variant := func(name, base string, edit func(q *core.Query)) {
		q, err := ssb.QueryByName(base)
		if err != nil {
			t.Fatal(err)
		}
		v := *q
		v.Name = name
		v.Dims = append([]core.DimSpec(nil), q.Dims...)
		edit(&v)
		out = append(out, lift(&v))
	}
	variant("nested-and", "Q1.1", func(q *core.Query) {
		q.FactPred = expr.And(
			expr.And(expr.Ge(expr.Col("lo_discount"), expr.ConstInt(1)), expr.Le(expr.Col("lo_discount"), expr.ConstInt(3))),
			expr.Lt(expr.Col("lo_quantity"), expr.ConstFloat(25.5)),
			expr.Ge(expr.Col("lo_discount"), expr.ConstInt(1)),
		)
		q.AggExpr = expr.Div(expr.Add(expr.Col("lo_revenue"), expr.ConstFloat(0.25)), expr.Sub(expr.Col("lo_quantity"), expr.ConstInt(-2)))
	})
	variant("odd-constants", "Q2.1", func(q *core.Query) {
		q.FactPred = expr.And(
			expr.Ne(expr.Col("lo_tax"), expr.ConstInt(0)),
			expr.Gt(expr.Col("lo_quantity"), expr.ConstFloat(1e21)),
			expr.In(expr.Col("lo_discount"), records.Int(1), records.Float(2.5), records.Int(-3)),
		)
		for i := range q.Dims {
			if q.Dims[i].Table == ssb.TableSupplier {
				q.Dims[i].Pred = expr.And(
					expr.Eq(expr.Col("s_region"), expr.ConstStr("AMERI'CA")),
					expr.Between(expr.Col("s_city"), records.Str("A, B"), records.Str("it''s")),
				)
			}
		}
	})
	variant("no-predicates", "Q3.1", func(q *core.Query) {
		q.FactPred = nil
		for i := range q.Dims {
			q.Dims[i].Pred = nil
		}
		q.GroupBy = nil
		q.OrderBy = nil
	})
	return out
}

// TestFingerprintGolden pins KeyOf(...).Fingerprint() byte for byte on every
// statement of fingerprintCases: a result cache keyed by it must answer the
// same statements with the same entries whatever renders the key.
// Regenerate with `go test ./internal/plan -run FingerprintGolden -update`.
func TestFingerprintGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, l := range fingerprintCases(t) {
		sh, err := plan.Decompose(l)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		k := plan.KeyOf(sh)
		fmt.Fprintf(&buf, "%s\t%s\n", l.Name, k.Fingerprint())
	}
	golden := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fingerprints changed (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}
