// Package expr provides the small expression and predicate language used by
// both query engines: column references, constants, arithmetic, comparisons,
// BETWEEN, IN, and conjunction. Expressions are compiled against a
// schema into closures; separate row-oriented and block-oriented (vectorized
// row index) compilations back the two execution paths the paper ablates.
package expr

import (
	"strconv"
	"strings"

	"clydesdale/internal/records"
)

// Expr is a scalar expression tree node.
type Expr interface {
	// Columns appends the column names the expression reads to dst.
	Columns(dst []string) []string
	String() string
}

// Pred is a boolean predicate tree node.
type Pred interface {
	Columns(dst []string) []string
	String() string
}

// ColExpr references a named column.
type ColExpr struct{ Name string }

// ConstExpr wraps a constant value.
type ConstExpr struct{ Val records.Value }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

// ArithExpr combines two numeric sub-expressions.
type ArithExpr struct {
	Op   ArithOp
	L, R Expr
}

// Col references the named column.
func Col(name string) Expr { return ColExpr{Name: name} }

// ConstInt wraps an integer constant.
func ConstInt(v int64) Expr { return ConstExpr{Val: records.Int(v)} }

// ConstFloat wraps a float constant.
func ConstFloat(v float64) Expr { return ConstExpr{Val: records.Float(v)} }

// ConstStr wraps a string constant.
func ConstStr(v string) Expr { return ConstExpr{Val: records.Str(v)} }

// Add returns l + r.
func Add(l, r Expr) Expr { return ArithExpr{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return ArithExpr{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return ArithExpr{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return ArithExpr{Op: OpDiv, L: l, R: r} }

func (e ColExpr) Columns(dst []string) []string { return append(dst, e.Name) }
func (e ColExpr) String() string                { return e.Name }

func (e ConstExpr) Columns(dst []string) []string { return dst }
func (e ConstExpr) String() string                { return render(e) }

func (e ArithExpr) Columns(dst []string) []string { return e.R.Columns(e.L.Columns(dst)) }
func (e ArithExpr) String() string                { return render(e) }

var arithNames = [...]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{CmpEq: "=", CmpNe: "<>", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return ""
}

// CmpPred compares two expressions.
type CmpPred struct {
	Op   CmpOp
	L, R Expr
}

// BetweenPred tests lo <= e <= hi (inclusive, SQL semantics).
type BetweenPred struct {
	E      Expr
	Lo, Hi records.Value
}

// InPred tests membership of e in a constant set.
type InPred struct {
	E    Expr
	Vals []records.Value
}

// AndPred is the conjunction of its parts; empty means true.
type AndPred struct{ Parts []Pred }

// Eq returns l = r.
func Eq(l, r Expr) Pred { return CmpPred{Op: CmpEq, L: l, R: r} }

// Ne returns l <> r.
func Ne(l, r Expr) Pred { return CmpPred{Op: CmpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Pred { return CmpPred{Op: CmpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Pred { return CmpPred{Op: CmpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Pred { return CmpPred{Op: CmpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Pred { return CmpPred{Op: CmpGe, L: l, R: r} }

// Between returns lo <= e <= hi.
func Between(e Expr, lo, hi records.Value) Pred { return BetweenPred{E: e, Lo: lo, Hi: hi} }

// In returns e IN (vals...).
func In(e Expr, vals ...records.Value) Pred { return InPred{E: e, Vals: vals} }

// And returns the conjunction of parts.
func And(parts ...Pred) Pred { return AndPred{Parts: parts} }

func (p CmpPred) Columns(dst []string) []string { return p.R.Columns(p.L.Columns(dst)) }
func (p CmpPred) String() string                { return render(p) }

func (p BetweenPred) Columns(dst []string) []string { return p.E.Columns(dst) }
func (p BetweenPred) String() string                { return render(p) }

func (p InPred) Columns(dst []string) []string { return p.E.Columns(dst) }
func (p InPred) String() string                { return render(p) }

func (p AndPred) Columns(dst []string) []string {
	for _, q := range p.Parts {
		dst = q.Columns(dst)
	}
	return dst
}
func (p AndPred) String() string { return render(p) }

func render(n Expr) string {
	var b strings.Builder
	Write(&b, n)
	return b.String()
}

// Write renders an expression or a predicate (Expr and Pred have one
// method set) into b: the text its String method returns, built without a
// string per node. Plan fingerprints and cache keys are made of this text,
// so no two different constants (or lists of them) may render alike: a
// string constant is single-quoted, its quotes doubled.
func Write(b *strings.Builder, n Expr) {
	switch n := n.(type) {
	case nil:
		b.WriteString("%!s(<nil>)") // fmt's %s of a nil operand
	case ColExpr:
		b.WriteString(n.Name)
	case ConstExpr:
		writeConst(b, n.Val)
	case ArithExpr:
		b.WriteByte('(')
		Write(b, n.L)
		b.WriteByte(' ')
		if int(n.Op) < len(arithNames) {
			b.WriteString(arithNames[n.Op])
		}
		b.WriteByte(' ')
		Write(b, n.R)
		b.WriteByte(')')
	case CmpPred:
		Write(b, n.L)
		b.WriteByte(' ')
		b.WriteString(n.Op.String())
		b.WriteByte(' ')
		Write(b, n.R)
	case BetweenPred:
		Write(b, n.E)
		b.WriteString(" BETWEEN ")
		writeConst(b, n.Lo)
		b.WriteString(" AND ")
		writeConst(b, n.Hi)
	case InPred:
		Write(b, n.E)
		b.WriteString(" IN (")
		for i, v := range n.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			writeConst(b, v)
		}
		b.WriteByte(')')
	case AndPred:
		for i, q := range n.Parts {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteByte('(')
			Write(b, q)
			b.WriteByte(')')
		}
	default:
		b.WriteString(n.String())
	}
}

func writeConst(b *strings.Builder, v records.Value) {
	var num [32]byte
	switch v.Kind() {
	case records.KindString:
		s := v.Str()
		b.WriteByte('\'')
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			b.WriteString(s[:i+1])
			b.WriteByte('\'')
			s = s[i+1:]
		}
		b.WriteString(s)
		b.WriteByte('\'')
	case records.KindInt64:
		b.Write(strconv.AppendInt(num[:0], v.Int64(), 10))
	case records.KindFloat64:
		b.Write(strconv.AppendFloat(num[:0], v.Float64(), 'g', -1, 64))
	default:
		b.WriteString(v.String())
	}
}

// ColumnsOf returns the deduplicated column names read by the given
// expressions and predicates, in first-appearance order.
func ColumnsOf(exprs []Expr, preds []Pred) []string {
	var raw []string
	for _, e := range exprs {
		if e != nil {
			raw = e.Columns(raw)
		}
	}
	for _, p := range preds {
		if p != nil {
			raw = p.Columns(raw)
		}
	}
	seen := make(map[string]bool, len(raw))
	out := raw[:0]
	for _, c := range raw {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
