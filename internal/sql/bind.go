package sql

import (
	"fmt"

	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// Star describes the tables a statement may reference: one fact table and
// its dimensions.
//
// Deprecated: bind against a core.Catalog with Parse. Star, StarFromCatalog
// and ParseStar stay because they are the repository benchmark's SQL front
// door (benchmark/ parses its serve_mix templates through them), and they
// remain the way to hand SQL to serve.Session.Query, which takes a
// core.Query.
type Star struct {
	Fact       string
	FactSchema *records.Schema
	Dims       map[string]*records.Schema
}

// StarFromCatalog builds the binder's table view from an engine catalog.
//
// Deprecated: pass the catalog itself to Parse.
func StarFromCatalog(cat *core.Catalog, factName string) *Star {
	return &Star{Fact: factName, FactSchema: cat.FactSchema, Dims: cat.DimSchemas}
}

// Parse compiles a SQL string against the catalog's tables into a bound
// logical plan. Join edges may relate the fact table to a dimension or a
// joined dimension to a further dimension (a snowflake chain); the only
// requirement is that every FROM table is reachable from the fact table
// through the WHERE equalities.
func Parse(input string, cat *core.Catalog) (*plan.Logical, error) {
	st, err := parse(input)
	if err != nil {
		return nil, err
	}
	l, _, err := bind(st, cat)
	return l, err
}

// ParseStar compiles a SQL string against a star schema into a core.Query.
//
// Deprecated: use Parse with the engine catalog; it returns the logical
// plan all three executors accept. ParseStar still works for pure star
// statements but rejects snowflake joins, which core.Query cannot express.
func ParseStar(input string, star *Star) (*core.Query, error) {
	cat := &core.Catalog{
		FactName:   star.Fact,
		FactSchema: star.FactSchema,
		DimSchemas: star.Dims,
	}
	st, err := parse(input)
	if err != nil {
		return nil, err
	}
	_, sh, err := bind(st, cat)
	if err != nil {
		return nil, err
	}
	q := &core.Query{
		Name:     sh.Name,
		FactPred: sh.FactPred,
		AggExpr:  sh.Agg,
		AggName:  sh.AggName,
		GroupBy:  sh.GroupBy,
	}
	for i := range sh.Joins {
		e := &sh.Joins[i]
		if e.Depth != 1 {
			return nil, fmt.Errorf("sql: %s joins through %s (depth %d); a star query cannot express snowflake edges", e.Table, e.Parent, e.Depth)
		}
		q.Dims = append(q.Dims, core.DimSpecOf(e))
	}
	for _, k := range sh.OrderBy {
		q.OrderBy = append(q.OrderBy, core.OrderKey(k))
	}
	return q, nil
}

// binder resolves column ownership for the tables a statement references.
type binder struct {
	fact       string
	factSchema *records.Schema
	dims       map[string]*records.Schema // FROM dimensions only
	order      []string                   // FROM order of the dimensions
}

// owner resolves which referenced table a column belongs to ("" = unknown);
// a column present in several tables is an error, since the grammar has no
// table qualifiers to disambiguate it.
func (b *binder) owner(col string) (string, error) {
	var found string
	if b.factSchema.Has(col) {
		found = b.fact
	}
	for _, name := range b.order {
		if b.dims[name].Has(col) {
			if found != "" {
				return "", fmt.Errorf("sql: column %q is ambiguous between %s and %s", col, found, name)
			}
			found = name
		}
	}
	return found, nil
}

// bind resolves a parsed statement against the catalog into a logical plan,
// returned with the shape Decompose validated it as.
func bind(st *stmt, cat *core.Catalog) (*plan.Logical, *plan.Shape, error) {
	factName := cat.FactName
	if factName == "" {
		factName = "fact"
	}
	b := &binder{fact: factName, factSchema: cat.FactSchema, dims: map[string]*records.Schema{}}

	// FROM: the fact table plus the joined tables, in clause order.
	sawFact := false
	for _, t := range st.from {
		switch {
		case t == factName:
			sawFact = true
		case cat.DimSchemas[t] != nil:
			if b.dims[t] != nil {
				return nil, nil, fmt.Errorf("sql: table %s appears twice in FROM", t)
			}
			b.dims[t] = cat.DimSchemas[t]
			b.order = append(b.order, t)
		default:
			return nil, nil, fmt.Errorf("sql: unknown table %q in FROM", t)
		}
	}
	if !sawFact {
		return nil, nil, fmt.Errorf("sql: FROM must include the fact table %q", factName)
	}

	// WHERE: split join edges from predicates.
	type edge struct {
		fk, pk string // fk on the attached side, pk on the table being joined
		table  string
	}
	joined := map[string]*edge{}
	preds := map[string][]expr.Pred{}
	var pendingJoins []condition
	for _, c := range st.where {
		if c.isJoin {
			pendingJoins = append(pendingJoins, c)
			continue
		}
		owner, err := b.owner(c.col)
		if err != nil {
			return nil, nil, err
		}
		if owner == "" {
			return nil, nil, fmt.Errorf("sql: unknown column %q in WHERE", c.col)
		}
		pred, err := conditionPred(c)
		if err != nil {
			return nil, nil, err
		}
		preds[owner] = append(preds[owner], pred)
	}

	// Attach loop: a join edge becomes resolvable once one of its sides
	// belongs to an attached table (the fact, or a dimension already
	// joined). The attached side's column is the foreign key, the new
	// side's the primary key — so snowflake chains bind in topological
	// order regardless of how WHERE lists them.
	attached := map[string]bool{factName: true}
	var joinOrder []string
	for len(pendingJoins) > 0 {
		progressed := false
		var rest []condition
		for _, c := range pendingJoins {
			lo, err := b.owner(c.left)
			if err != nil {
				return nil, nil, err
			}
			ro, err := b.owner(c.right)
			if err != nil {
				return nil, nil, err
			}
			if lo == "" {
				return nil, nil, fmt.Errorf("sql: unknown column %q in join", c.left)
			}
			if ro == "" {
				return nil, nil, fmt.Errorf("sql: unknown column %q in join", c.right)
			}
			var fkCol, pkCol, pkTbl string
			switch {
			case attached[lo] && !attached[ro]:
				fkCol, pkCol, pkTbl = c.left, c.right, ro
			case attached[ro] && !attached[lo]:
				fkCol, pkCol, pkTbl = c.right, c.left, lo
			case attached[lo] && attached[ro]:
				return nil, nil, fmt.Errorf("sql: join %s = %s relates two already-joined tables", c.left, c.right)
			default:
				rest = append(rest, c) // neither side attached yet; retry
				continue
			}
			if pkTbl == factName {
				return nil, nil, fmt.Errorf("sql: join %s = %s cannot re-join the fact table", c.left, c.right)
			}
			joined[pkTbl] = &edge{fk: fkCol, pk: pkCol, table: pkTbl}
			attached[pkTbl] = true
			joinOrder = append(joinOrder, pkTbl)
			progressed = true
		}
		if !progressed {
			c := rest[0]
			return nil, nil, fmt.Errorf("sql: join %s = %s is not connected to the fact table", c.left, c.right)
		}
		pendingJoins = rest
	}
	for _, d := range b.order {
		if joined[d] == nil {
			return nil, nil, fmt.Errorf("sql: table %s has no join condition", d)
		}
	}
	for t := range preds {
		if t != factName && joined[t] == nil {
			return nil, nil, fmt.Errorf("sql: predicate on %s, which is not joined", t)
		}
	}

	// SELECT: exactly one SUM aggregate plus the group columns.
	var aggExpr expr.Expr
	aggName := ""
	var plainCols []string
	for _, item := range st.selects {
		if item.isSum {
			if aggExpr != nil {
				return nil, nil, fmt.Errorf("sql: only one SUM aggregate is supported")
			}
			aggExpr = item.sum
			aggName = item.alias
			if aggName == "" {
				aggName = "sum"
			}
			continue
		}
		plainCols = append(plainCols, item.col)
	}
	if aggExpr == nil {
		return nil, nil, fmt.Errorf("sql: the select list needs a SUM aggregate")
	}
	for _, c := range expr.ColumnsOf([]expr.Expr{aggExpr}, nil) {
		if !cat.FactSchema.Has(c) {
			return nil, nil, fmt.Errorf("sql: SUM argument column %q is not a fact column", c)
		}
	}

	// GROUP BY: dimension columns.
	groupSet := map[string]bool{}
	var groupBy []string
	for _, g := range st.groupBy {
		owner, err := b.owner(g)
		if err != nil {
			return nil, nil, err
		}
		if owner == "" || owner == factName || joined[owner] == nil {
			return nil, nil, fmt.Errorf("sql: GROUP BY column %q must come from a joined dimension", g)
		}
		groupBy = append(groupBy, g)
		groupSet[g] = true
	}
	for _, c := range plainCols {
		if !groupSet[c] {
			return nil, nil, fmt.Errorf("sql: selected column %q is not in GROUP BY", c)
		}
	}

	// ORDER BY: group columns or the aggregate alias.
	var orderBy []plan.OrderKey
	for _, o := range st.orderBy {
		if !groupSet[o.col] && o.col != aggName {
			return nil, nil, fmt.Errorf("sql: ORDER BY column %q is neither grouped nor the aggregate", o.col)
		}
		orderBy = append(orderBy, plan.OrderKey{Col: o.col, Desc: o.desc})
	}

	// Assemble the logical tree: fact scan, join edges in attach order,
	// aggregate, order.
	var root plan.Node = &plan.Scan{Table: factName, Source: cat.FactSchema, Fact: true}
	if p := andAll(preds[factName]); p != nil {
		root = &plan.Filter{Input: root, Pred: p}
	}
	for _, t := range joinOrder {
		ed := joined[t]
		var right plan.Node = &plan.Scan{Table: t, Source: b.dims[t]}
		if p := andAll(preds[t]); p != nil {
			right = &plan.Filter{Input: right, Pred: p}
		}
		root = &plan.Join{Left: root, Right: right, LeftKey: ed.fk, RightKey: ed.pk}
	}
	root = &plan.Aggregate{Input: root, Agg: aggExpr, AggName: aggName, GroupBy: groupBy}
	if len(orderBy) > 0 {
		root = &plan.Order{Input: root, Keys: orderBy}
	}
	l := &plan.Logical{Name: "sql", Root: root}
	// Decompose validates the whole statement (ownership, reachability,
	// aux resolution) so errors surface at bind time, not execution time.
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, nil, err
	}
	return l, sh, nil
}

// andAll conjoins a predicate list (nil when empty).
func andAll(ps []expr.Pred) expr.Pred {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	default:
		return expr.And(ps...)
	}
}

// conditionPred turns a parsed predicate condition into an expr.Pred.
func conditionPred(c condition) (expr.Pred, error) {
	col := expr.Col(c.col)
	lit := func(v records.Value) (expr.Expr, error) {
		switch v.Kind() {
		case records.KindInt64:
			return expr.ConstInt(v.Int64()), nil
		case records.KindFloat64:
			return expr.ConstFloat(v.Float64()), nil
		case records.KindString:
			return expr.ConstStr(v.Str()), nil
		default:
			return nil, fmt.Errorf("sql: unsupported literal kind %v", v.Kind())
		}
	}
	switch c.op {
	case "between":
		return expr.Between(col, c.lit, c.hi), nil
	case "in":
		return expr.In(col, c.set...), nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, err := lit(c.lit)
		if err != nil {
			return nil, err
		}
		switch c.op {
		case "=":
			return expr.Eq(col, l), nil
		case "<>":
			return expr.Ne(col, l), nil
		case "<":
			return expr.Lt(col, l), nil
		case "<=":
			return expr.Le(col, l), nil
		case ">":
			return expr.Gt(col, l), nil
		default:
			return expr.Ge(col, l), nil
		}
	default:
		return nil, fmt.Errorf("sql: unsupported operator %q", c.op)
	}
}
