package expr

import (
	"fmt"

	"clydesdale/internal/records"
)

// The block compilation path mirrors the row path but reads typed column
// vectors directly, with no per-value boxing. This is the execution side of
// B-CIF block iteration: one virtual call per block instead of per row, and
// tight loops over typed slices.

// CompileBlock compiles e against the schema into a block evaluator.
func CompileBlock(e Expr, s *records.Schema) (BlockEval, error) {
	switch e := e.(type) {
	case ColExpr:
		i := s.Index(e.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in %v", e.Name, s)
		}
		return func(b *records.RowBlock, row int) records.Value { return b.Col(i).Value(row) }, nil
	case ConstExpr:
		v := e.Val
		return func(*records.RowBlock, int) records.Value { return v }, nil
	case ArithExpr:
		n, err := CompileBlockNum(e, s)
		if err != nil {
			return nil, err
		}
		return func(b *records.RowBlock, row int) records.Value {
			return records.Float(n(b, row))
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot block-compile %T", e)
	}
}

// CompileBlockNum compiles e into a numeric block evaluator.
func CompileBlockNum(e Expr, s *records.Schema) (BlockNum, error) {
	switch e := e.(type) {
	case ColExpr:
		i := s.Index(e.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in %v", e.Name, s)
		}
		switch s.Field(i).Kind {
		case records.KindInt64:
			return func(b *records.RowBlock, row int) float64 { return float64(b.Col(i).Ints[row]) }, nil
		case records.KindFloat64:
			return func(b *records.RowBlock, row int) float64 { return b.Col(i).Floats[row] }, nil
		default:
			return nil, fmt.Errorf("expr: column %q is %s, not numeric", e.Name, s.Field(i).Kind)
		}
	case ConstExpr:
		if e.Val.Kind() != records.KindInt64 && e.Val.Kind() != records.KindFloat64 {
			return nil, fmt.Errorf("expr: constant %v is not numeric", e.Val)
		}
		v := e.Val.Float64()
		return func(*records.RowBlock, int) float64 { return v }, nil
	case ArithExpr:
		l, err := CompileBlockNum(e.L, s)
		if err != nil {
			return nil, err
		}
		r, err := CompileBlockNum(e.R, s)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(b *records.RowBlock, row int) float64 { return arith(op, l(b, row), r(b, row)) }, nil
	default:
		return nil, fmt.Errorf("expr: cannot block-compile %T as numeric", e)
	}
}

// CompileBlockPred compiles p against the schema into a block predicate.
// Comparisons between an int64/float64/string column and a constant use
// specialized unboxed paths; everything else falls back to boxed evaluation.
func CompileBlockPred(p Pred, s *records.Schema) (BlockPred, error) {
	switch p := p.(type) {
	case CmpPred:
		if fast, ok, err := fastColConstCmp(p, s); err != nil {
			return nil, err
		} else if ok {
			return fast, nil
		}
		l, err := CompileBlock(p.L, s)
		if err != nil {
			return nil, err
		}
		r, err := CompileBlock(p.R, s)
		if err != nil {
			return nil, err
		}
		op := p.Op
		return func(b *records.RowBlock, row int) bool {
			return cmpHolds(op, l(b, row).Compare(r(b, row)))
		}, nil
	case BetweenPred:
		if col, ok := p.E.(ColExpr); ok {
			i := s.Index(col.Name)
			if i < 0 {
				return nil, fmt.Errorf("expr: unknown column %q in %v", col.Name, s)
			}
			switch s.Field(i).Kind {
			case records.KindInt64:
				if p.Lo.Kind() == records.KindInt64 && p.Hi.Kind() == records.KindInt64 {
					lo, hi := p.Lo.Int64(), p.Hi.Int64()
					return func(b *records.RowBlock, row int) bool {
						v := b.Col(i).Ints[row]
						return v >= lo && v <= hi
					}, nil
				}
			case records.KindString:
				if p.Lo.Kind() == records.KindString && p.Hi.Kind() == records.KindString {
					lo, hi := p.Lo.Str(), p.Hi.Str()
					return func(b *records.RowBlock, row int) bool {
						v := b.Col(i).Strs[row]
						return v >= lo && v <= hi
					}, nil
				}
			}
		}
		e, err := CompileBlock(p.E, s)
		if err != nil {
			return nil, err
		}
		lo, hi := p.Lo, p.Hi
		return func(b *records.RowBlock, row int) bool {
			v := e(b, row)
			return v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		}, nil
	case InPred:
		if col, ok := p.E.(ColExpr); ok {
			i := s.Index(col.Name)
			if i < 0 {
				return nil, fmt.Errorf("expr: unknown column %q in %v", col.Name, s)
			}
			if s.Field(i).Kind == records.KindString {
				set := make(map[string]bool, len(p.Vals))
				for _, v := range p.Vals {
					if v.Kind() != records.KindString {
						return nil, fmt.Errorf("expr: IN list mixes kinds for %q", col.Name)
					}
					set[v.Str()] = true
				}
				return func(b *records.RowBlock, row int) bool { return set[b.Col(i).Strs[row]] }, nil
			}
			if s.Field(i).Kind == records.KindInt64 {
				set := make(map[int64]bool, len(p.Vals))
				for _, v := range p.Vals {
					if v.Kind() != records.KindInt64 {
						return nil, fmt.Errorf("expr: IN list mixes kinds for %q", col.Name)
					}
					set[v.Int64()] = true
				}
				return func(b *records.RowBlock, row int) bool { return set[b.Col(i).Ints[row]] }, nil
			}
		}
		e, err := CompileBlock(p.E, s)
		if err != nil {
			return nil, err
		}
		set := make(map[records.Value]bool, len(p.Vals))
		for _, v := range p.Vals {
			set[v] = true
		}
		return func(b *records.RowBlock, row int) bool { return set[e(b, row)] }, nil
	case AndPred:
		parts := make([]BlockPred, len(p.Parts))
		for i, q := range p.Parts {
			var err error
			if parts[i], err = CompileBlockPred(q, s); err != nil {
				return nil, err
			}
		}
		return func(b *records.RowBlock, row int) bool {
			for _, q := range parts {
				if !q(b, row) {
					return false
				}
			}
			return true
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot block-compile predicate %T", p)
	}
}

// fastColConstCmp recognizes "col OP const" and compiles an unboxed
// comparator. The second return reports whether the shape matched.
func fastColConstCmp(p CmpPred, s *records.Schema) (BlockPred, bool, error) {
	col, okL := p.L.(ColExpr)
	c, okR := p.R.(ConstExpr)
	if !okL || !okR {
		return nil, false, nil
	}
	i := s.Index(col.Name)
	if i < 0 {
		return nil, false, fmt.Errorf("expr: unknown column %q in %v", col.Name, s)
	}
	op := p.Op
	switch s.Field(i).Kind {
	case records.KindInt64:
		if c.Val.Kind() != records.KindInt64 {
			return nil, false, nil
		}
		cv := c.Val.Int64()
		return func(b *records.RowBlock, row int) bool {
			v := b.Col(i).Ints[row]
			switch {
			case v < cv:
				return cmpHolds(op, -1)
			case v > cv:
				return cmpHolds(op, 1)
			}
			return cmpHolds(op, 0)
		}, true, nil
	case records.KindString:
		if c.Val.Kind() != records.KindString {
			return nil, false, nil
		}
		cv := c.Val.Str()
		return func(b *records.RowBlock, row int) bool {
			v := b.Col(i).Strs[row]
			switch {
			case v < cv:
				return cmpHolds(op, -1)
			case v > cv:
				return cmpHolds(op, 1)
			}
			return cmpHolds(op, 0)
		}, true, nil
	}
	return nil, false, nil
}
