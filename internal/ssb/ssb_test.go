package ssb

import (
	"slices"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

func TestCardinalities(t *testing.T) {
	g := NewGenerator(1, 1)
	if g.CustomerRows() != 30_000 || g.SupplierRows() != 2_000 || g.PartRows() != 200_000 ||
		g.DateRows() != 2_556 || g.LineorderRows() != 6_000_000 {
		t.Errorf("SF1 cardinalities: c=%d s=%d p=%d d=%d lo=%d",
			g.CustomerRows(), g.SupplierRows(), g.PartRows(), g.DateRows(), g.LineorderRows())
	}
	g4 := NewGenerator(4, 1)
	if g4.PartRows() != 600_000 { // 200k × (1 + log2 4)
		t.Errorf("SF4 part rows = %d", g4.PartRows())
	}
	small := NewGenerator(0.01, 1)
	if small.LineorderRows() != 60_000 || small.DateRows() != 2_556 {
		t.Errorf("SF0.01: lo=%d d=%d", small.LineorderRows(), small.DateRows())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(0.01, 7)
	b := NewGenerator(0.01, 7)
	for _, table := range []string{TableLineorder, TableCustomer, TableSupplier, TablePart, TableDate} {
		for _, i := range []int64{0, 1, 17, 999} {
			if a.Row(table, i).Compare(b.Row(table, i)) != 0 {
				t.Errorf("%s row %d not deterministic", table, i)
			}
		}
	}
	c := NewGenerator(0.01, 8)
	if a.Lineorder(5).Compare(c.Lineorder(5)) == 0 {
		t.Error("different seeds should produce different rows")
	}
}

func TestCustomerFields(t *testing.T) {
	g := NewGenerator(0.01, 3)
	nationRegion := map[string]string{}
	for _, n := range Nations {
		nationRegion[n.Name] = n.Region
	}
	for i := int64(0); i < g.CustomerRows(); i++ {
		c := g.Customer(i)
		if c.Get("c_custkey").Int64() != i+1 {
			t.Fatalf("custkey = %d", c.Get("c_custkey").Int64())
		}
		nation := c.Get("c_nation").Str()
		if nationRegion[nation] != c.Get("c_region").Str() {
			t.Fatalf("nation %s in region %s", nation, c.Get("c_region").Str())
		}
		city := c.Get("c_city").Str()
		if len(city) != 10 || !strings.HasPrefix(city, (nation + "         ")[:9]) {
			t.Fatalf("city %q does not match nation %q", city, nation)
		}
	}
}

func TestCityOf(t *testing.T) {
	if CityOf("UNITED KINGDOM", 1) != "UNITED KI1" {
		t.Errorf("CityOf = %q", CityOf("UNITED KINGDOM", 1))
	}
	if CityOf("IRAN", 5) != "IRAN     5" {
		t.Errorf("CityOf short nation = %q", CityOf("IRAN", 5))
	}
}

func TestPartBrandsFixedWidth(t *testing.T) {
	g := NewGenerator(0.05, 3)
	for i := int64(0); i < g.PartRows(); i += 13 {
		p := g.Part(i)
		brand := p.Get("p_brand1").Str()
		cat := p.Get("p_category").Str()
		mfgr := p.Get("p_mfgr").Str()
		if len(brand) != len("MFGR#1221") {
			t.Fatalf("brand %q not fixed width", brand)
		}
		if !strings.HasPrefix(brand, cat) {
			t.Fatalf("brand %q not in category %q", brand, cat)
		}
		if !strings.HasPrefix(cat, mfgr) {
			t.Fatalf("category %q not under mfgr %q", cat, mfgr)
		}
	}
}

func TestDateDimension(t *testing.T) {
	g := NewGenerator(1, 1)
	first := g.Date(0)
	if first.Get("d_datekey").Int64() != 19920101 {
		t.Errorf("first datekey = %d", first.Get("d_datekey").Int64())
	}
	if first.Get("d_year").Int64() != 1992 {
		t.Errorf("first year = %d", first.Get("d_year").Int64())
	}
	last := g.Date(g.DateRows() - 1)
	if last.Get("d_year").Int64() != 1998 {
		t.Errorf("last year = %d (datekey %d)", last.Get("d_year").Int64(), last.Get("d_datekey").Int64())
	}
	// Dec1997 must exist: the paper's Q3.4 filters on it.
	found := false
	for i := int64(0); i < g.DateRows(); i++ {
		if g.Date(i).Get("d_yearmonth").Str() == "Dec1997" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no Dec1997 in date dimension")
	}
}

func TestLineorderReferentialIntegrity(t *testing.T) {
	g := NewGenerator(0.01, 5)
	dateKeys := map[int64]bool{}
	for i := int64(0); i < g.DateRows(); i++ {
		dateKeys[g.Date(i).Get("d_datekey").Int64()] = true
	}
	for i := int64(0); i < 2000; i++ {
		lo := g.Lineorder(i)
		if k := lo.Get("lo_custkey").Int64(); k < 1 || k > g.CustomerRows() {
			t.Fatalf("custkey %d out of range", k)
		}
		if k := lo.Get("lo_suppkey").Int64(); k < 1 || k > g.SupplierRows() {
			t.Fatalf("suppkey %d out of range", k)
		}
		if k := lo.Get("lo_partkey").Int64(); k < 1 || k > g.PartRows() {
			t.Fatalf("partkey %d out of range", k)
		}
		if !dateKeys[lo.Get("lo_orderdate").Int64()] {
			t.Fatalf("orderdate %d not in date dim", lo.Get("lo_orderdate").Int64())
		}
		q := lo.Get("lo_quantity").Int64()
		if q < 1 || q > 50 {
			t.Fatalf("quantity %d", q)
		}
		d := lo.Get("lo_discount").Int64()
		if d < 0 || d > 10 {
			t.Fatalf("discount %d", d)
		}
		rev := lo.Get("lo_revenue").Int64()
		ext := lo.Get("lo_extendedprice").Int64()
		if rev != ext*(100-d)/100 {
			t.Fatalf("revenue %d != %d*(100-%d)/100", rev, ext, d)
		}
	}
}

func TestQueriesCatalog(t *testing.T) {
	qs := Queries()
	if len(qs) != 13 {
		t.Fatalf("%d queries, want 13", len(qs))
	}
	wantDims := map[string]int{
		"Q1.1": 1, "Q1.2": 1, "Q1.3": 1,
		"Q2.1": 3, "Q2.2": 3, "Q2.3": 3,
		"Q3.1": 3, "Q3.2": 3, "Q3.3": 3, "Q3.4": 3,
		"Q4.1": 4, "Q4.2": 4, "Q4.3": 4,
	}
	// Each dimension's fact foreign key and primary key.
	keys := map[string][2]string{
		TableCustomer: {"lo_custkey", "c_custkey"},
		TableSupplier: {"lo_suppkey", "s_suppkey"},
		TablePart:     {"lo_partkey", "p_partkey"},
		TableDate:     {"lo_orderdate", "d_datekey"},
	}
	for _, q := range qs {
		if len(q.Dims) != wantDims[q.Name] {
			t.Errorf("%s: %d dims, want %d", q.Name, len(q.Dims), wantDims[q.Name])
		}
		if q.AggExpr == nil || q.AggName == "" {
			t.Errorf("%s: missing aggregate", q.Name)
		}
		for _, d := range q.Dims {
			if keys[d.Table] != [2]string{d.FactFK, d.DimPK} {
				t.Errorf("%s: %s join keys %s=%s", q.Name, d.Table, d.FactFK, d.DimPK)
			}
			for _, aux := range d.Aux {
				if SchemaOf(d.Table).Index(aux) < 0 {
					t.Errorf("%s: aux %s not in %s", q.Name, aux, d.Table)
				}
			}
		}
		// Group-by columns must come from dim aux columns.
		for _, gcol := range q.GroupBy {
			found := false
			for _, d := range q.Dims {
				for _, aux := range d.Aux {
					if aux == gcol {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("%s: group column %s not provided by any dim aux", q.Name, gcol)
			}
		}
		if q.String() == "" || q.ResultSchema().Len() != len(q.GroupBy)+1 {
			t.Errorf("%s: bad result schema", q.Name)
		}
	}
}

func TestFactColumns(t *testing.T) {
	q, err := QueryByName("q3.1")
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LogicalOf(q, &core.Catalog{FactName: TableLineorder, FactSchema: LineorderSchema})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.Decompose(l)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"}
	if cols := sh.FactColumns(); !slices.Equal(cols, want) {
		t.Errorf("FactColumns = %v, want %v", cols, want)
	}
	if _, err := QueryByName("q9.9"); err == nil {
		t.Error("expected unknown query error")
	}
	if q.Dim(TableCustomer) == nil || q.Dim(TablePart) != nil {
		t.Error("Dim lookup failed")
	}
}

func TestFlights(t *testing.T) {
	f := map[byte]int{}
	for _, q := range Queries() {
		f[q.Name[1]]++
	}
	if f['1'] != 3 || f['2'] != 3 || f['3'] != 4 || f['4'] != 3 {
		t.Errorf("flight sizes: %d %d %d %d", f['1'], f['2'], f['3'], f['4'])
	}
}

func TestLoad(t *testing.T) {
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 9})
	g := NewGenerator(0.002, 1) // 12k fact rows
	lay, err := Load(fs, g, "/ssb", LoadOptions{PartitionRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if lay.Rows[TableLineorder] != g.LineorderRows() {
		t.Errorf("fact rows = %d", lay.Rows[TableLineorder])
	}
	if !fs.Exists(lay.FactCIF + "/_schema") {
		t.Error("fact CIF missing")
	}
	if !fs.Exists(lay.FactRC + "/_schema") {
		t.Error("fact RC missing")
	}
	for _, d := range []string{TableCustomer, TableSupplier, TablePart, TableDate} {
		if !fs.Exists(lay.Dims[d] + "/_schema") {
			t.Errorf("dim %s missing", d)
		}
	}
	// Selectivity sanity: region predicate keeps roughly 1/5 of customers.
	region := 0
	for i := int64(0); i < g.CustomerRows(); i++ {
		if g.Customer(i).Get("c_region").Str() == "ASIA" {
			region++
		}
	}
	frac := float64(region) / float64(g.CustomerRows())
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("ASIA customer fraction = %.3f, want ~0.2", frac)
	}
}

func TestQueriesValidate(t *testing.T) {
	for _, q := range Queries() {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

func TestLayoutCatalog(t *testing.T) {
	lay := &Layout{
		FactCIF: "/ssb/lineorder.cif",
		FactRC:  "/ssb/lineorder.rc",
		Dims:    map[string]string{TableDate: "/ssb/date"},
	}
	cat := lay.Catalog()
	if cat.FactDir != lay.FactCIF || !cat.FactSchema.Equal(LineorderSchema) {
		t.Error("Catalog fact mismatch")
	}
	if d, err := cat.DimDir(TableDate); err != nil || d != "/ssb/date" {
		t.Errorf("DimDir = %q, %v", d, err)
	}
	if _, err := cat.DimDir("nope"); err == nil {
		t.Error("expected missing-dim error")
	}
	if lay.RCCatalog().FactDir != lay.FactRC {
		t.Error("RCCatalog fact mismatch")
	}
}

var _ = records.Record{} // keep records import if assertions change

func TestBenchGeneratorShape(t *testing.T) {
	g := NewBenchGenerator(2, 90_000, 7)
	if g.CustomerRows() != 60_000 || g.SupplierRows() != 4_000 || g.PartRows() != 4_400 {
		t.Errorf("dims: c=%d s=%d p=%d", g.CustomerRows(), g.SupplierRows(), g.PartRows())
	}
	if g.LineorderRows() != 90_000 || g.DateRows() != 2_556 {
		t.Errorf("fact=%d date=%d", g.LineorderRows(), g.DateRows())
	}
	// The SF1000 proportion that matters: part stays far smaller than
	// customer (unlike raw SSB at small SF), so the region-filtered
	// customer hash dominates (§6.4).
	if g.PartRows() >= g.CustomerRows()/5 {
		t.Errorf("part (%d) should be much smaller than customer (%d)", g.PartRows(), g.CustomerRows())
	}
	// Defaults when given nonsense.
	d := NewBenchGenerator(0, 0, 7)
	if d.LineorderRows() <= 0 || d.CustomerRows() <= 0 {
		t.Error("defaults not applied")
	}
	// FK ranges respect the overridden cardinalities.
	for i := int64(0); i < 500; i++ {
		lo := g.Lineorder(i)
		if k := lo.Get("lo_partkey").Int64(); k < 1 || k > g.PartRows() {
			t.Fatalf("partkey %d out of range", k)
		}
		if k := lo.Get("lo_custkey").Int64(); k < 1 || k > g.CustomerRows() {
			t.Fatalf("custkey %d out of range", k)
		}
	}
}
