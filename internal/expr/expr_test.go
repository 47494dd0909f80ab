package expr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"clydesdale/internal/records"
)

var testSchema = records.NewSchema(
	records.F("qty", records.KindInt64),
	records.F("price", records.KindFloat64),
	records.F("region", records.KindString),
	records.F("discount", records.KindInt64),
)

func testRow(qty int64, price float64, region string, discount int64) records.Record {
	return records.Make(testSchema,
		records.Int(qty), records.Float(price), records.Str(region), records.Int(discount))
}

func TestCompileArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want float64
	}{
		{Mul(Col("price"), Col("discount")), 10 * 3},
		{Sub(Col("price"), Col("qty")), 10 - 5},
		{Add(Col("qty"), ConstInt(2)), 7},
		{Div(Col("price"), ConstFloat(4)), 2.5},
	}
	r := testRow(5, 10, "ASIA", 3)
	for _, c := range cases {
		f, err := CompileNum(c.e, testSchema)
		if err != nil {
			t.Fatalf("%v: %v", c.e, err)
		}
		if got := f(r); got != c.want {
			t.Errorf("%v = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(Col("missing"), testSchema); err == nil {
		t.Error("expected error for missing column")
	}
	if _, err := CompileNum(Col("region"), testSchema); err == nil {
		t.Error("expected error for non-numeric column")
	}
	if _, err := CompileNum(ConstStr("x"), testSchema); err == nil {
		t.Error("expected error for string constant as numeric")
	}
	if _, err := CompilePred(Eq(Col("missing"), ConstInt(1)), testSchema); err == nil {
		t.Error("expected error for missing column in predicate")
	}
	if _, err := CompileBlockPred(Eq(Col("missing"), ConstInt(1)), testSchema); err == nil {
		t.Error("expected block error for missing column in predicate")
	}
}

func TestCompilePredicates(t *testing.T) {
	cases := []struct {
		p    Pred
		want bool
	}{
		{Eq(Col("region"), ConstStr("ASIA")), true},
		{Eq(Col("region"), ConstStr("EUROPE")), false},
		{Ne(Col("region"), ConstStr("EUROPE")), true},
		{Lt(Col("qty"), ConstInt(6)), true},
		{Le(Col("qty"), ConstInt(5)), true},
		{Gt(Col("qty"), ConstInt(5)), false},
		{Ge(Col("qty"), ConstInt(5)), true},
		{Between(Col("discount"), records.Int(1), records.Int(3)), true},
		{Between(Col("discount"), records.Int(4), records.Int(6)), false},
		{In(Col("region"), records.Str("ASIA"), records.Str("EUROPE")), true},
		{In(Col("region"), records.Str("AFRICA")), false},
		{And(Eq(Col("region"), ConstStr("ASIA")), Lt(Col("qty"), ConstInt(10))), true},
		{And(Eq(Col("region"), ConstStr("ASIA")), Lt(Col("qty"), ConstInt(1))), false},
		{And(), true},
	}
	r := testRow(5, 10, "ASIA", 3)
	for _, c := range cases {
		f, err := CompilePred(c.p, testSchema)
		if err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		if got := f(r); got != c.want {
			t.Errorf("%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestBlockRowAgreement is the core property: block-compiled and
// row-compiled evaluation must agree on every row.
func TestBlockRowAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regions := []string{"ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"}
	block := records.NewRowBlock(testSchema, 256)
	var rows []records.Record
	for i := 0; i < 256; i++ {
		r := testRow(rng.Int63n(50), float64(rng.Intn(1000))/4, regions[rng.Intn(len(regions))], rng.Int63n(11))
		rows = append(rows, r)
		block.AppendRow(r)
	}
	preds := []Pred{
		Eq(Col("region"), ConstStr("ASIA")),
		Ne(Col("region"), ConstStr("ASIA")),
		Lt(Col("qty"), ConstInt(25)),
		Ge(Col("qty"), ConstInt(25)),
		Between(Col("discount"), records.Int(1), records.Int(3)),
		Between(Col("region"), records.Str("AMERICA"), records.Str("EUROPE")),
		In(Col("region"), records.Str("ASIA"), records.Str("AFRICA")),
		In(Col("qty"), records.Int(1), records.Int(2), records.Int(3)),
		And(Lt(Col("qty"), ConstInt(40)), Gt(Col("discount"), ConstInt(2))),
		Gt(Col("price"), ConstFloat(100)),
	}
	for _, p := range preds {
		rowF, err := CompilePred(p, testSchema)
		if err != nil {
			t.Fatalf("row compile %v: %v", p, err)
		}
		blockF, err := CompileBlockPred(p, testSchema)
		if err != nil {
			t.Fatalf("block compile %v: %v", p, err)
		}
		for i, r := range rows {
			if rowF(r) != blockF(block, i) {
				t.Errorf("%v: row %d disagrees (row=%v block=%v)", p, i, rowF(r), blockF(block, i))
			}
		}
	}
	exprs := []Expr{
		Mul(Col("price"), Col("discount")),
		Sub(Col("price"), Col("qty")),
		Add(Add(Col("qty"), Col("discount")), ConstInt(1)),
	}
	for _, e := range exprs {
		rowF, err := CompileNum(e, testSchema)
		if err != nil {
			t.Fatalf("row compile %v: %v", e, err)
		}
		blockF, err := CompileBlockNum(e, testSchema)
		if err != nil {
			t.Fatalf("block compile %v: %v", e, err)
		}
		for i, r := range rows {
			if rowF(r) != blockF(block, i) {
				t.Errorf("%v: row %d disagrees", e, i)
			}
		}
	}
}

func TestBlockEvalBoxed(t *testing.T) {
	block := records.NewRowBlock(testSchema, 2)
	block.AppendRow(testRow(5, 10, "ASIA", 3))
	f, err := CompileBlock(Col("region"), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if f(block, 0).Str() != "ASIA" {
		t.Error("boxed block eval failed")
	}
	g, err := CompileBlock(Mul(Col("qty"), ConstInt(2)), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if g(block, 0).Float64() != 10 {
		t.Error("boxed block arith failed")
	}
	c, err := CompileBlock(ConstStr("k"), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if c(block, 0).Str() != "k" {
		t.Error("const block eval failed")
	}
}

func TestColumnsOf(t *testing.T) {
	got := ColumnsOf(
		[]Expr{Mul(Col("price"), Col("discount")), Col("price")},
		[]Pred{And(Eq(Col("region"), ConstStr("ASIA")), Lt(Col("qty"), ConstInt(10)))},
	)
	want := []string{"price", "discount", "region", "qty"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ColumnsOf = %v, want %v", got, want)
	}
}

func TestPredString(t *testing.T) {
	p := And(
		Eq(Col("region"), ConstStr("ASIA")),
		Between(Col("d"), records.Int(1), records.Int(3)),
		In(Col("r"), records.Str("a")),
		Lt(Col("q"), ConstInt(2)),
		Between(Col("s"), records.Str("x"), records.Str("y, z")),
		Eq(Col("n"), ConstStr("O'Brien")),
	)
	s := p.String()
	for _, frag := range []string{"region = 'ASIA'", "BETWEEN 1 AND 3", "IN ('a')", "(q < 2)",
		"s BETWEEN 'x' AND 'y, z'", "n = 'O''Brien'"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	e := Div(Sub(Col("a"), Col("b")), ConstFloat(2))
	if e.String() != "((a - b) / 2)" {
		t.Errorf("expr String = %q", e.String())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// Property: for random int rows, the specialized fast comparator agrees with
// generic Value comparison.
func TestFastCmpQuick(t *testing.T) {
	s := records.NewSchema(records.F("x", records.KindInt64))
	f := func(x, c int64) bool {
		b := records.NewRowBlock(s, 1)
		b.AppendRow(records.Make(s, records.Int(x)))
		for _, op := range []func(Expr, Expr) Pred{Eq, Ne, Lt, Le, Gt, Ge} {
			p := op(Col("x"), ConstInt(c))
			rowF, err1 := CompilePred(p, s)
			blockF, err2 := CompileBlockPred(p, s)
			if err1 != nil || err2 != nil {
				return false
			}
			if rowF(b.Row(0)) != blockF(b, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
