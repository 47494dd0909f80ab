package plan_test

import (
	"strings"
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// TestDecomposeSharedKeyName covers a join whose key is spelled the same on
// both sides (sales.store_id = store.store_id): the build side's copy is
// equal to the probe side's by the join condition, so it is not ambiguous,
// the probe side keeps the column, and a GROUP BY on it is served by the
// build side. Any other column the two tables share still is ambiguous.
func TestDecomposeSharedKeyName(t *testing.T) {
	sales := records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("units", records.KindInt64),
	)
	store := records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("region", records.KindString),
	)
	logical := func(storeSchema *records.Schema, groupBy ...string) *plan.Logical {
		var n plan.Node = &plan.Scan{Table: "sales", Source: sales, Fact: true}
		n = &plan.Join{
			Left:    n,
			Right:   &plan.Filter{Input: &plan.Scan{Table: "store", Source: storeSchema}, Pred: expr.Eq(expr.Col("region"), expr.ConstStr("WEST"))},
			LeftKey: "store_id", RightKey: "store_id",
		}
		return &plan.Logical{Name: "q", Root: &plan.Aggregate{Input: n, Agg: expr.Col("units"), AggName: "units_sum", GroupBy: groupBy}}
	}

	sh, err := plan.Decompose(logical(store, "region"))
	if err != nil {
		t.Fatalf("same-named join key rejected: %v", err)
	}
	if e := sh.Joins[0]; e.FK != "store_id" || e.PK != "store_id" || e.Parent != "" || e.Depth != 1 {
		t.Errorf("edge = %+v, want a depth-1 edge off the fact on store_id", e)
	}
	if got := sh.Joins[0].Aux; len(got) != 1 || got[0] != "region" {
		t.Errorf("aux = %v, want [region]: the key itself is not carried unless asked for", got)
	}
	if got := sh.FactColumns(); len(got) != 2 || got[0] != "store_id" || got[1] != "units" {
		t.Errorf("fact columns = %v, want [store_id units]", got)
	}

	// Grouping on the shared name takes the build side's copy, and the
	// pipeline then carries one store_id, not two.
	sh, err = plan.Decompose(logical(store, "store_id"))
	if err != nil {
		t.Fatalf("group by a same-named join key rejected: %v", err)
	}
	steps, err := sh.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if got := steps[0].Out.Names(); len(got) != 2 || got[0] != "units" || got[1] != "store_id" {
		t.Errorf("pass output = %v, want [units store_id]", got)
	}

	// A shared column that is not the join key stays an error.
	clash := records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("region", records.KindString),
		records.F("units", records.KindInt64),
	)
	if _, err := plan.Decompose(logical(clash, "region")); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("units in both tables: err = %v, want an ambiguity error", err)
	}
}
