package expr

import "clydesdale/internal/records"

// Interval evaluation: deciding, from per-column [min,max] summaries alone,
// whether a predicate can hold for any row of a data block. This is the
// zone-map side of partition pruning — the storage layer records min/max per
// partition and the scan planner drops partitions whose summaries prove the
// predicate false everywhere (RangeNever). The logic is three-valued: a
// summary usually cannot decide a predicate exactly, so the safe default is
// RangeMaybe and only certain outcomes are reported as Never/Always.

// RangeResult is the three-valued outcome of interval evaluation.
type RangeResult int8

const (
	// RangeNever means no row in the summarized data can satisfy the
	// predicate — the partition may be skipped.
	RangeNever RangeResult = iota
	// RangeMaybe means the summary cannot decide; the data must be scanned.
	RangeMaybe
	// RangeAlways means every (non-null) row satisfies the predicate.
	RangeAlways
)

func (r RangeResult) String() string {
	switch r {
	case RangeNever:
		return "never"
	case RangeAlways:
		return "always"
	default:
		return "maybe"
	}
}

// ColRange summarizes one column of a partition: the minimum and maximum
// values present and whether any nulls occur. Min/Max must be of the
// column's kind (they are ignored, yielding Maybe, when kinds mismatch the
// predicate's constants).
type ColRange struct {
	Min, Max records.Value
	HasNulls bool
}

// RangeSource resolves a column name to its range summary; the second
// return reports whether a summary exists for the column.
type RangeSource func(col string) (ColRange, bool)

// PredRange evaluates p over column range summaries. RangeNever guarantees
// no row of the summarized data satisfies p (sound for pruning); RangeAlways
// guarantees every row with non-null inputs does. Unknown columns,
// unsupported shapes, and kind mismatches all degrade to RangeMaybe, never
// to a wrong certain answer.
func PredRange(p Pred, src RangeSource) RangeResult {
	switch p := p.(type) {
	case CmpPred:
		return cmpRange(p, src)
	case BetweenPred:
		cr, ok := colRangeOf(p.E, src)
		if !ok {
			return RangeMaybe
		}
		lo, hi := p.Lo, p.Hi
		if cr.Min.Kind() != lo.Kind() || cr.Max.Kind() != hi.Kind() {
			return RangeMaybe
		}
		if cr.Max.Compare(lo) < 0 || cr.Min.Compare(hi) > 0 {
			return RangeNever
		}
		if cr.Min.Compare(lo) >= 0 && cr.Max.Compare(hi) <= 0 {
			return demoteForNulls(cr)
		}
		return RangeMaybe
	case InPred:
		cr, ok := colRangeOf(p.E, src)
		if !ok {
			return RangeMaybe
		}
		anyInside := false
		for _, v := range p.Vals {
			if cr.Min.Kind() != v.Kind() {
				return RangeMaybe
			}
			if v.Compare(cr.Min) >= 0 && v.Compare(cr.Max) <= 0 {
				anyInside = true
			}
		}
		if !anyInside {
			return RangeNever
		}
		// A single-point column contained in the IN set holds everywhere.
		if cr.Min.Equal(cr.Max) {
			return demoteForNulls(cr)
		}
		return RangeMaybe
	case AndPred:
		out := RangeAlways
		for _, q := range p.Parts {
			switch PredRange(q, src) {
			case RangeNever:
				return RangeNever
			case RangeMaybe:
				out = RangeMaybe
			}
		}
		return out
	default:
		return RangeMaybe
	}
}

// cmpRange handles col OP const and const OP col; anything else is Maybe.
func cmpRange(p CmpPred, src RangeSource) RangeResult {
	op := p.Op
	cr, ok := colRangeOf(p.L, src)
	var c ConstExpr
	if ok {
		cc, isConst := p.R.(ConstExpr)
		if !isConst {
			return RangeMaybe
		}
		c = cc
	} else {
		cr, ok = colRangeOf(p.R, src)
		cc, isConst := p.L.(ConstExpr)
		if !ok || !isConst {
			return RangeMaybe
		}
		c = cc
		op = flipCmp(op)
	}
	if cr.Min.Kind() != c.Val.Kind() {
		return RangeMaybe
	}
	lo, hi := cr.Min.Compare(c.Val), cr.Max.Compare(c.Val)
	var res RangeResult
	switch op {
	case CmpEq:
		switch {
		case hi < 0 || lo > 0:
			res = RangeNever
		case lo == 0 && hi == 0:
			res = RangeAlways
		default:
			res = RangeMaybe
		}
	case CmpNe:
		switch {
		case lo == 0 && hi == 0:
			res = RangeNever
		case hi < 0 || lo > 0:
			res = RangeAlways
		default:
			res = RangeMaybe
		}
	case CmpLt:
		switch {
		case hi < 0:
			res = RangeAlways
		case lo >= 0:
			res = RangeNever
		default:
			res = RangeMaybe
		}
	case CmpLe:
		switch {
		case hi <= 0:
			res = RangeAlways
		case lo > 0:
			res = RangeNever
		default:
			res = RangeMaybe
		}
	case CmpGt:
		switch {
		case lo > 0:
			res = RangeAlways
		case hi <= 0:
			res = RangeNever
		default:
			res = RangeMaybe
		}
	case CmpGe:
		switch {
		case lo >= 0:
			res = RangeAlways
		case hi < 0:
			res = RangeNever
		default:
			res = RangeMaybe
		}
	default:
		return RangeMaybe
	}
	if res == RangeAlways {
		return demoteForNulls(cr)
	}
	return res
}

// colRangeOf resolves a bare column reference to its range summary.
func colRangeOf(e Expr, src RangeSource) (ColRange, bool) {
	col, ok := e.(ColExpr)
	if !ok {
		return ColRange{}, false
	}
	cr, ok := src(col.Name)
	if !ok || cr.Min.IsNull() || cr.Max.IsNull() {
		return ColRange{}, false
	}
	return cr, ok
}

// demoteForNulls turns Always into Maybe when the column contains nulls
// (a null input makes the comparison unknown, not true).
func demoteForNulls(cr ColRange) RangeResult {
	if cr.HasNulls {
		return RangeMaybe
	}
	return RangeAlways
}

// flipCmp mirrors an operator across its operands: const OP col becomes
// col flip(OP) const.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op
	}
}
