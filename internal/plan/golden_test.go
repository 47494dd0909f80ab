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

// ssbPlanCatalog is a storage-less catalog: the golden tests bind and cost
// plans from the generator's statistics without materializing a dataset.
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

// statsFor mirrors core.(*Engine).PlanStats over generator rows instead of
// stored tables: the same estimators (star hash model, boxed mapjoin
// model), a fixed SF-1 fact cardinality, and a pinned cluster geometry so
// the golden costs are stable.
func statsFor(t *testing.T, gen *ssb.Generator, q *ssb.Query) *plan.Stats {
	t.Helper()
	each := func(table string, fn func(records.Record) error) error {
		return gen.Each(table, fn)
	}
	hashBytes, err := core.EstimateDimHashBytes(q.Dims, each)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]plan.TableStats, len(q.Dims))
	for i := range q.Dims {
		spec := &q.Dims[i]
		var pred expr.RowPred
		if spec.Pred != nil {
			p, err := expr.CompilePred(spec.Pred, spec.Schema)
			if err != nil {
				t.Fatal(err)
			}
			pred = p
		}
		auxIdx := make([]int, len(spec.Aux))
		for j, a := range spec.Aux {
			auxIdx[j] = spec.Schema.MustIndex(a)
		}
		ts := plan.TableStats{HashBytes: hashBytes[i]}
		aux := make([]records.Value, len(auxIdx))
		err := each(spec.Table, func(r records.Record) error {
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
			t.Fatal(err)
		}
		tables[spec.Table] = ts
	}
	return &plan.Stats{
		FactRows:      gen.LineorderRows(),
		Tables:        tables,
		Nodes:         5,
		MapSlots:      2,
		MemoryPerNode: 512 << 20,
	}
}

// TestSSBGoldenPlans pins the chooser's output for all 13 SSB queries:
// bind to the IR, cost with SF-1 statistics, explain, and compare against
// testdata/<query>.golden. Regenerate with `go test ./internal/plan
// -run GoldenPlans -update`. Every SSB query is a pure star on a cluster
// with memory to spare, so the chosen kind must always be the single-pass
// star join.
func TestSSBGoldenPlans(t *testing.T) {
	gen := ssb.NewGenerator(1, 42)
	cat := ssbPlanCatalog()
	for _, q := range ssb.Queries() {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		phys, err := plan.Choose(l, statsFor(t, gen, q))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if phys.Kind != plan.KindStar {
			t.Errorf("%s: chose %s, want %s", q.Name, phys.Kind, plan.KindStar)
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
