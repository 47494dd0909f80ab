package plan_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

var update = flag.Bool("update", false, "rewrite the golden plan files")

// ssbPlanCatalog is a storage-less catalog: the golden test binds and lowers
// plans without materializing a dataset.
func ssbPlanCatalog() *core.Catalog {
	return &core.Catalog{
		FactName:   ssb.TableLineorder,
		FactSchema: ssb.LineorderSchema,
		DimSchemas: map[string]*records.Schema{
			ssb.TableCustomer: ssb.CustomerSchema,
			ssb.TableSupplier: ssb.SupplierSchema,
			ssb.TablePart:     ssb.PartSchema,
			ssb.TableDate:     ssb.DateSchema,
		},
	}
}

// TestSSBGoldenPlans pins the lowering of all 13 SSB queries: bind to the
// IR, lower, explain, and compare against testdata/<query>.golden.
// Regenerate with `go test ./internal/plan -run GoldenPlans -update`. Every
// SSB query is a pure star, so each must lower to the single star-join job:
// one pass over all of its steps. (That the plans answer correctly is
// core's TestAllQueriesMatchReference, which runs them through the same
// Lower.)
func TestSSBGoldenPlans(t *testing.T) {
	cat := ssbPlanCatalog()
	for _, q := range ssb.Queries() {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		phys, err := plan.Lower(l)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(phys.Passes) != 1 || phys.Passes[0] != len(q.Dims) {
			t.Errorf("%s: lowered to passes %v, want one star pass over %d steps", q.Name, phys.Passes, len(q.Dims))
		}
		var buf bytes.Buffer
		if err := plan.Explain(&buf, phys); err != nil {
			t.Fatalf("%s: explain: %v", q.Name, err)
		}
		golden := filepath.Join("testdata", q.Name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", q.Name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: plan text changed (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
				q.Name, buf.String(), want)
		}
	}
}

// TestKeyOfTellsConstantListsApart: Q3.3's two-city list and the one city
// whose name is that list's text are different statements, so their cache
// keys must differ (they rendered alike while string constants went
// unquoted in IN lists and BETWEEN bounds).
func TestKeyOfTellsConstantListsApart(t *testing.T) {
	cat := ssbPlanCatalog()
	q, err := ssb.QueryByName("Q3.3")
	if err != nil {
		t.Fatal(err)
	}
	one := *q
	one.Dims = append([]core.DimSpec(nil), q.Dims...)
	one.Dims[0].Pred = expr.In(expr.Col("c_city"), records.Str("UNITED KI1, UNITED KI5"))
	var keys []string
	for _, q := range []*core.Query{q, &one} {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := plan.Decompose(l)
		if err != nil {
			t.Fatal(err)
		}
		k := plan.KeyOf(sh)
		keys = append(keys, k.Fingerprint())
	}
	if keys[0] == keys[1] {
		t.Errorf("Q3.3 and a one-city list share the cache key %s", keys[0])
	}
}
