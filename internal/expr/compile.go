package expr

import (
	"fmt"

	"clydesdale/internal/records"
)

// RowEval evaluates an expression against one record.
type RowEval func(records.Record) records.Value

// RowPred evaluates a predicate against one record.
type RowPred func(records.Record) bool

// BlockEval evaluates an expression against row i of a block without boxing
// the row into a Record.
type BlockEval func(b *records.RowBlock, i int) records.Value

// BlockPred evaluates a predicate against row i of a block.
type BlockPred func(b *records.RowBlock, i int) bool

// BlockNum evaluates a numeric expression against row i of a block,
// returning a float64 directly (the aggregation fast path).
type BlockNum func(b *records.RowBlock, i int) float64

// RowNum evaluates a numeric expression against one record, returning a
// float64 directly.
type RowNum func(records.Record) float64

// Compile compiles e against the schema into a row evaluator.
func Compile(e Expr, s *records.Schema) (RowEval, error) {
	switch e := e.(type) {
	case ColExpr:
		i := s.Index(e.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in %v", e.Name, s)
		}
		return func(r records.Record) records.Value { return r.At(i) }, nil
	case ConstExpr:
		v := e.Val
		return func(records.Record) records.Value { return v }, nil
	case ArithExpr:
		l, err := CompileNum(e.L, s)
		if err != nil {
			return nil, err
		}
		r, err := CompileNum(e.R, s)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(rec records.Record) records.Value {
			return records.Float(arith(op, l(rec), r(rec)))
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile %T", e)
	}
}

// CompileNum compiles e into a numeric row evaluator. Column references must
// be int64 or float64.
func CompileNum(e Expr, s *records.Schema) (RowNum, error) {
	switch e := e.(type) {
	case ColExpr:
		i := s.Index(e.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in %v", e.Name, s)
		}
		switch s.Field(i).Kind {
		case records.KindInt64:
			return func(r records.Record) float64 { return float64(r.At(i).Int64()) }, nil
		case records.KindFloat64:
			return func(r records.Record) float64 { return r.At(i).Float64() }, nil
		default:
			return nil, fmt.Errorf("expr: column %q is %s, not numeric", e.Name, s.Field(i).Kind)
		}
	case ConstExpr:
		if e.Val.Kind() != records.KindInt64 && e.Val.Kind() != records.KindFloat64 {
			return nil, fmt.Errorf("expr: constant %v is not numeric", e.Val)
		}
		v := e.Val.Float64()
		return func(records.Record) float64 { return v }, nil
	case ArithExpr:
		l, err := CompileNum(e.L, s)
		if err != nil {
			return nil, err
		}
		r, err := CompileNum(e.R, s)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(rec records.Record) float64 { return arith(op, l(rec), r(rec)) }, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile %T as numeric", e)
	}
}

func arith(op ArithOp, l, r float64) float64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return l / r
	}
	return 0
}

// CompilePred compiles p against the schema into a row predicate.
func CompilePred(p Pred, s *records.Schema) (RowPred, error) {
	switch p := p.(type) {
	case CmpPred:
		l, err := Compile(p.L, s)
		if err != nil {
			return nil, err
		}
		r, err := Compile(p.R, s)
		if err != nil {
			return nil, err
		}
		op := p.Op
		return func(rec records.Record) bool {
			return cmpHolds(op, l(rec).Compare(r(rec)))
		}, nil
	case BetweenPred:
		e, err := Compile(p.E, s)
		if err != nil {
			return nil, err
		}
		lo, hi := p.Lo, p.Hi
		return func(rec records.Record) bool {
			v := e(rec)
			return v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		}, nil
	case InPred:
		e, err := Compile(p.E, s)
		if err != nil {
			return nil, err
		}
		set := make(map[records.Value]bool, len(p.Vals))
		for _, v := range p.Vals {
			set[v] = true
		}
		return func(rec records.Record) bool { return set[e(rec)] }, nil
	case AndPred:
		parts := make([]RowPred, len(p.Parts))
		for i, q := range p.Parts {
			var err error
			if parts[i], err = CompilePred(q, s); err != nil {
				return nil, err
			}
		}
		return func(rec records.Record) bool {
			for _, q := range parts {
				if !q(rec) {
					return false
				}
			}
			return true
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile predicate %T", p)
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}
