package expr

import (
	"math/rand"
	"testing"

	"clydesdale/internal/records"
)

func srcOf(m map[string]ColRange) RangeSource {
	return func(col string) (ColRange, bool) {
		cr, ok := m[col]
		return cr, ok
	}
}

func intRange(lo, hi int64) ColRange {
	return ColRange{Min: records.Int(lo), Max: records.Int(hi)}
}

func strRange(lo, hi string) ColRange {
	return ColRange{Min: records.Str(lo), Max: records.Str(hi)}
}

func TestPredRangeCases(t *testing.T) {
	src := srcOf(map[string]ColRange{
		"a": intRange(10, 20),
		"b": intRange(5, 5),
		"s": strRange("dog", "fox"),
		"n": {Min: records.Int(0), Max: records.Int(9), HasNulls: true},
	})
	cases := []struct {
		name string
		p    Pred
		want RangeResult
	}{
		{"eq-below", Eq(Col("a"), ConstInt(5)), RangeNever},
		{"eq-above", Eq(Col("a"), ConstInt(25)), RangeNever},
		{"eq-inside", Eq(Col("a"), ConstInt(15)), RangeMaybe},
		{"eq-point", Eq(Col("b"), ConstInt(5)), RangeAlways},
		{"ne-point", Ne(Col("b"), ConstInt(5)), RangeNever},
		{"ne-outside", Ne(Col("a"), ConstInt(99)), RangeAlways},
		{"lt-all", Lt(Col("a"), ConstInt(21)), RangeAlways},
		{"lt-none", Lt(Col("a"), ConstInt(10)), RangeNever},
		{"lt-some", Lt(Col("a"), ConstInt(15)), RangeMaybe},
		{"le-boundary", Le(Col("a"), ConstInt(20)), RangeAlways},
		{"gt-none", Gt(Col("a"), ConstInt(20)), RangeNever},
		{"ge-all", Ge(Col("a"), ConstInt(10)), RangeAlways},
		{"flipped-const-left", Lt(ConstInt(25), Col("a")), RangeNever},
		{"flipped-const-left-always", Gt(ConstInt(25), Col("a")), RangeAlways},
		{"between-never", Between(Col("a"), records.Int(30), records.Int(40)), RangeNever},
		{"between-always", Between(Col("a"), records.Int(0), records.Int(99)), RangeAlways},
		{"between-maybe", Between(Col("a"), records.Int(15), records.Int(40)), RangeMaybe},
		{"in-never", In(Col("a"), records.Int(1), records.Int(99)), RangeNever},
		{"in-maybe", In(Col("a"), records.Int(15)), RangeMaybe},
		{"in-point-always", In(Col("b"), records.Int(5), records.Int(7)), RangeAlways},
		{"str-never", Eq(Col("s"), ConstStr("zebra")), RangeNever},
		{"str-between-always", Between(Col("s"), records.Str("aaa"), records.Str("zzz")), RangeAlways},
		{"unknown-col", Eq(Col("zz"), ConstInt(1)), RangeMaybe},
		{"kind-mismatch", Eq(Col("a"), ConstStr("x")), RangeMaybe},
		{"and-never-wins", And(Lt(Col("a"), ConstInt(99)), Gt(Col("a"), ConstInt(50))), RangeNever},
		{"and-always", And(Lt(Col("a"), ConstInt(99)), Ge(Col("a"), ConstInt(0))), RangeAlways},
		{"and-maybe", And(Lt(Col("a"), ConstInt(99)), Gt(Col("a"), ConstInt(15))), RangeMaybe},
		{"nulls-demote-always", Le(Col("n"), ConstInt(9)), RangeMaybe},
		{"nulls-keep-never", Gt(Col("n"), ConstInt(9)), RangeNever},
		{"non-col-shape", Eq(Add(Col("a"), ConstInt(1)), ConstInt(5)), RangeMaybe},
	}
	for _, c := range cases {
		if got := PredRange(c.p, src); got != c.want {
			t.Errorf("%s: PredRange(%s) = %s, want %s", c.name, c.p, got, c.want)
		}
	}
}

// TestPredRangeSoundness cross-checks interval evaluation against row
// evaluation: for random integer predicates and random blocks of rows,
// RangeNever must imply no row matches and RangeAlways must imply all do.
func TestPredRangeSoundness(t *testing.T) {
	schema := records.NewSchema(records.F("x", records.KindInt64), records.F("y", records.KindInt64))
	rng := rand.New(rand.NewSource(7))
	randPred := func() Pred {
		col := Col([]string{"x", "y"}[rng.Intn(2)])
		c := int64(rng.Intn(40))
		switch rng.Intn(6) {
		case 0:
			return Eq(col, ConstInt(c))
		case 1:
			return Lt(col, ConstInt(c))
		case 2:
			return Ge(col, ConstInt(c))
		case 3:
			return Between(col, records.Int(c), records.Int(c+int64(rng.Intn(10))))
		case 4:
			return In(col, records.Int(c), records.Int(c+3))
		default:
			return Ne(col, ConstInt(c))
		}
	}
	for trial := 0; trial < 500; trial++ {
		p := And(randPred(), randPred(), randPred())
		n := rng.Intn(20) + 1
		rows := make([]records.Record, n)
		minX, maxX := int64(1<<62), int64(-1<<62)
		minY, maxY := int64(1<<62), int64(-1<<62)
		for i := range rows {
			x, y := int64(rng.Intn(40)), int64(rng.Intn(40))
			rows[i] = records.Make(schema, records.Int(x), records.Int(y))
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		src := srcOf(map[string]ColRange{"x": intRange(minX, maxX), "y": intRange(minY, maxY)})
		eval, err := CompilePred(p, schema)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for _, r := range rows {
			if eval(r) {
				matches++
			}
		}
		switch PredRange(p, src) {
		case RangeNever:
			if matches != 0 {
				t.Fatalf("trial %d: RangeNever but %d/%d rows match %s", trial, matches, n, p)
			}
		case RangeAlways:
			if matches != n {
				t.Fatalf("trial %d: RangeAlways but only %d/%d rows match %s", trial, matches, n, p)
			}
		}
	}
}
