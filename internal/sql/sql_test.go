package sql

import (
	"strings"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// ssbSQL is each SSB query in SQL, adapted to this repo's schema (brands
// carry two-digit numbers; see the ssb package comment).
var ssbSQL = map[string]string{
	"Q1.1": `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1993
		  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25;`,
	"Q1.2": `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
		  AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35;`,
	"Q1.3": `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 AND d_year = 1994
		  AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35;`,
	"Q2.1": `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	"Q2.2": `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region = 'ASIA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	"Q2.3": `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	"Q3.1": `SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_region = 'ASIA' AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997
		GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC;`,
	"Q3.2": `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES'
		  AND d_year >= 1992 AND d_year <= 1997
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC;`,
	"Q3.3": `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_year >= 1992 AND d_year <= 1997
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC;`,
	"Q3.4": `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_yearmonth = 'Dec1997'
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC;`,
	"Q4.1": `SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, c_nation ORDER BY d_year, c_nation;`,
	"Q4.2": `SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category;`,
	"Q4.3": `SELECT d_year, s_city, p_brand1, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES'
		  AND d_year IN (1997, 1998) AND p_category = 'MFGR#14'
		GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1;`,
}

func ssbStar() *Star {
	return &Star{
		Fact:       ssb.TableLineorder,
		FactSchema: ssb.LineorderSchema,
		Dims: map[string]*records.Schema{
			ssb.TableCustomer: ssb.CustomerSchema,
			ssb.TableSupplier: ssb.SupplierSchema,
			ssb.TablePart:     ssb.PartSchema,
			ssb.TableDate:     ssb.DateSchema,
		},
	}
}

// TestSSBQueriesFromSQLMatchCatalog parses every SSB query from SQL and
// checks that the reference executor produces the same answers as for the
// hand-built catalog query.
func TestSSBQueriesFromSQLMatchCatalog(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	star := ssbStar()
	for _, q := range ssb.Queries() {
		text, ok := ssbSQL[q.Name]
		if !ok {
			t.Fatalf("no SQL text for %s", q.Name)
		}
		parsed, err := ParseStar(text, star)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		parsed.Name = q.Name

		// Structural checks: same dimensions (order may differ from the
		// catalog's where the SQL FROM order differs), same group-by.
		if len(parsed.Dims) != len(q.Dims) {
			t.Errorf("%s: %d dims, want %d", q.Name, len(parsed.Dims), len(q.Dims))
		}
		if len(parsed.GroupBy) != len(q.GroupBy) {
			t.Errorf("%s: group by %v, want %v", q.Name, parsed.GroupBy, q.GroupBy)
		}

		got, err := refexec.Run(gen, parsed)
		if err != nil {
			t.Fatalf("%s parsed run: %v", q.Name, err)
		}
		want, err := refexec.Run(gen, q)
		if err != nil {
			t.Fatalf("%s catalog run: %v", q.Name, err)
		}
		// Group column order may differ between SQL text and catalog spec;
		// compare against a projection-aligned view.
		if !parsed.ResultSchema().Equal(q.ResultSchema()) {
			aligned := &results.ResultSet{Schema: q.ResultSchema()}
			names := q.ResultSchema().Names()
			for _, r := range got.Rows {
				vals := make([]records.Value, len(names))
				for i, n := range names {
					vals[i] = r.Get(n)
				}
				aligned.Rows = append(aligned.Rows, records.Make(aligned.Schema, vals...))
			}
			got = aligned
		}
		if ok, why := results.Equivalent(got, want, 1e-9); !ok {
			t.Errorf("%s: SQL and catalog answers differ: %s", q.Name, why)
		}
	}
}

// parseErrorCases are statements the front end must reject, with a fragment
// of the error each must produce; they also seed FuzzParse.
var parseErrorCases = []struct {
	name, text, wantErr string
}{
	{"no sum", "SELECT d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year", "SUM"},
	{"unknown table", "SELECT SUM(lo_revenue) FROM lineorder, nope WHERE lo_orderdate = d_datekey", "unknown table"},
	{"no fact", "SELECT SUM(lo_revenue) FROM date", "fact table"},
	{"missing join", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE d_year = 1993", "no join condition"},
	{"unknown column", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey AND wat = 3", "unknown column"},
	{"group not dim", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY lo_quantity", "GROUP BY"},
	{"select not grouped", "SELECT d_year, SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey", "not in GROUP BY"},
	{"order not grouped", "SELECT SUM(lo_revenue) AS r FROM lineorder, date WHERE lo_orderdate = d_datekey ORDER BY d_year", "ORDER BY"},
	{"two sums", "SELECT SUM(lo_revenue), SUM(lo_quantity) FROM lineorder, date WHERE lo_orderdate = d_datekey", "one SUM"},
	{"sum of dim col", "SELECT SUM(d_year) FROM lineorder, date WHERE lo_orderdate = d_datekey", "fact column"},
	{"join dim dim", "SELECT SUM(lo_revenue) FROM lineorder, date, part WHERE lo_orderdate = d_datekey AND d_datekey = p_partkey AND lo_partkey = p_partkey", "already-joined"},
	{"joined twice", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey AND lo_commitdate = d_datekey", "already-joined"},
	{"disconnected join", "SELECT SUM(lo_revenue) FROM lineorder, date, part WHERE d_datekey = p_partkey", "not connected"},
	{"unterminated string", "SELECT SUM(lo_revenue) FROM lineorder WHERE lo_shipmode = 'AIR", "unterminated"},
	{"trailing garbage", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey )", "trailing"},
	{"bad char", "SELECT SUM(lo_revenue) FROM lineorder @", "unexpected character"},
}

func TestParseErrors(t *testing.T) {
	star := ssbStar()
	for _, c := range parseErrorCases {
		_, err := ParseStar(c.text, star)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	star := ssbStar()
	q, err := ParseStar("SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey", star)
	if err != nil {
		t.Fatal(err)
	}
	if q.AggName != "sum" {
		t.Errorf("default agg name = %q", q.AggName)
	}
	if q.FactPred != nil || len(q.GroupBy) != 0 || len(q.OrderBy) != 0 {
		t.Error("unexpected clauses")
	}
	// Reversed join order (dim column on the left) binds identically.
	q2, err := ParseStar("SELECT SUM(lo_revenue) FROM lineorder, date WHERE d_datekey = lo_orderdate", star)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Dims[0].FactFK != "lo_orderdate" || q2.Dims[0].DimPK != "d_datekey" {
		t.Errorf("reversed join bound as %s=%s", q2.Dims[0].FactFK, q2.Dims[0].DimPK)
	}
	// Float literals and division parse.
	q3, err := ParseStar("SELECT SUM(lo_revenue / 100.5) FROM lineorder, date WHERE lo_orderdate = d_datekey", star)
	if err != nil {
		t.Fatal(err)
	}
	if q3.AggExpr == nil {
		t.Error("no aggregate expr")
	}
}

// TestParseSnowflake binds a statement whose second join hangs off a
// dimension rather than the fact table, which the logical IR expresses and
// the deprecated star binding rejects.
func TestParseSnowflake(t *testing.T) {
	cat := &core.Catalog{
		FactName: "f",
		FactSchema: records.NewSchema(
			records.F("f_a_fk", records.KindInt64),
			records.F("f_m", records.KindInt64),
		),
		DimSchemas: map[string]*records.Schema{
			"a": records.NewSchema(
				records.F("a_pk", records.KindInt64),
				records.F("a_b_fk", records.KindInt64),
				records.F("a_attr", records.KindString),
			),
			"b": records.NewSchema(
				records.F("b_pk", records.KindInt64),
				records.F("b_attr", records.KindString),
			),
		},
	}
	// The WHERE lists the deep edge first: the attach loop must defer it
	// until a joins.
	text := `SELECT b_attr, SUM(f_m) AS total FROM f, a, b
		WHERE a_b_fk = b_pk AND f_a_fk = a_pk GROUP BY b_attr`
	l, err := Parse(text, cat)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.Decompose(l)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MaxDepth() != 2 {
		t.Errorf("max depth = %d, want 2", sh.MaxDepth())
	}
	var deep *plan.JoinEdge
	for i := range sh.Joins {
		if sh.Joins[i].Table == "b" {
			deep = &sh.Joins[i]
		}
	}
	if deep == nil || deep.Parent != "a" || deep.Depth != 2 || deep.FK != "a_b_fk" {
		t.Errorf("edge b bound as %+v", deep)
	}

	// The star wrapper cannot express the chain.
	star := &Star{Fact: "f", FactSchema: cat.FactSchema, Dims: cat.DimSchemas}
	if _, err := ParseStar(text, star); err == nil {
		t.Error("ParseStar accepted a snowflake statement")
	}
}
