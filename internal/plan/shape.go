package plan

import (
	"fmt"
	"sort"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// JoinEdge is one join of the canonicalized plan: a small (build-side)
// table joined into the pipeline on Parent's FK column. Column ownership is
// resolved once here, when the plan is bound — the lowerings read it off
// the edge instead of re-deriving it with per-stage string scans.
type JoinEdge struct {
	Table  string
	Schema *records.Schema
	// FK is the probe-side key column; it belongs to the fact when Parent
	// is empty, otherwise to the Parent dimension (a snowflake edge).
	FK string
	// PK is the build-side key column in Schema.
	PK   string
	Pred expr.Pred
	// Parent is the table owning FK: "" for the fact, else an earlier
	// edge's Table.
	Parent string
	// Depth is 1 for edges off the fact, parent depth + 1 for snowflake
	// edges.
	Depth int
	// Aux lists the columns this table must carry up the pipeline: its
	// group-by columns (in group order) plus the FK columns of its child
	// edges.
	Aux []string
}

// Shape is a canonicalized logical plan: a filtered fact scan, a join
// pipeline in bind order (parents always precede children), and a single
// grouped SUM with optional ordering. Decompose produces it; the physical
// lowerings consume it.
type Shape struct {
	Name       string
	Fact       string
	FactSchema *records.Schema
	FactPred   expr.Pred
	Joins      []JoinEdge
	Agg        expr.Expr
	AggName    string
	GroupBy    []string
	OrderBy    []OrderKey
}

// Decompose canonicalizes a bound logical tree into a Shape. It validates
// the tree against what the engines can execute: a left-deep join chain
// rooted at a single fact scan, one SUM aggregate, group columns owned by
// joined dimensions, and order keys drawn from the output schema.
func Decompose(l *Logical) (*Shape, error) {
	if l == nil || l.Root == nil {
		return nil, fmt.Errorf("plan: empty logical plan")
	}
	sh := &Shape{Name: l.Name}
	n := l.Root
	if o, ok := n.(*Order); ok {
		sh.OrderBy = o.Keys
		n = o.Input
	}
	agg, ok := n.(*Aggregate)
	if !ok {
		return nil, fmt.Errorf("plan: the root of the plan must be an aggregate")
	}
	if agg.Agg == nil || agg.AggName == "" {
		return nil, fmt.Errorf("plan: the aggregate needs a SUM expression and an output name")
	}
	sh.Agg, sh.AggName, sh.GroupBy = agg.Agg, agg.AggName, agg.GroupBy

	// Walk the left spine collecting joins, then reverse into bind order.
	joins := make([]*Join, 0, 8)
	n = agg.Input
	for {
		j, ok := n.(*Join)
		if !ok {
			break
		}
		joins = append(joins, j)
		n = j.Left
	}
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	if f, ok := n.(*Filter); ok {
		sh.FactPred = f.Pred
		n = f.Input
	}
	fact, ok := n.(*Scan)
	if !ok {
		return nil, fmt.Errorf("plan: the join chain must bottom out at the fact table scan")
	}
	sh.Fact, sh.FactSchema = fact.Table, fact.Source

	// A column belongs to the first table, in pipeline order (the fact, then
	// the joins in bind order), whose schema has it; sh.owner asks the
	// schemas' own indexes. Ambiguity is refused as each join is bound, so
	// no later table has one of those columns, with one exception: a join key
	// spelled the same on both sides (fact store_id = store.store_id). That
	// one stays the probe side's, but a GROUP BY on it may take the build
	// side's copy, the only one a fact-owned key can be grouped by.
	sh.Joins = make([]JoinEdge, 0, len(joins))
	for _, j := range joins {
		rn := j.Right
		var pred expr.Pred
		if f, ok := rn.(*Filter); ok {
			pred = f.Pred
			rn = f.Input
		}
		sc, ok := rn.(*Scan)
		if !ok {
			return nil, fmt.Errorf("plan: the build side of a join must be a (optionally filtered) table scan")
		}
		if sc.Table == sh.Fact || sh.edge(sc.Table) != nil {
			return nil, fmt.Errorf("plan: table %s joined twice", sc.Table)
		}
		e := JoinEdge{Table: sc.Table, Schema: sc.Source, FK: j.LeftKey, PK: j.RightKey, Pred: pred, Depth: 1}
		if !e.Schema.Has(e.PK) {
			return nil, fmt.Errorf("plan: join key %s is not a column of %s", e.PK, e.Table)
		}
		parent := sh.owner(e.FK)
		if parent == "" {
			return nil, fmt.Errorf("plan: join key %s is not produced by the plan below the join with %s", e.FK, e.Table)
		}
		if parent != sh.Fact {
			e.Parent = parent
			e.Depth = sh.edge(parent).Depth + 1
		}
		for i := 0; i < e.Schema.Len(); i++ {
			name := e.Schema.Field(i).Name
			if name == e.PK && e.PK == e.FK {
				continue // equal to the probe column by the join condition, so not ambiguous
			}
			if o := sh.owner(name); o != "" {
				return nil, fmt.Errorf("plan: column %s is ambiguous between %s and %s", name, o, e.Table)
			}
		}
		sh.Joins = append(sh.Joins, e)
	}

	// Resolve auxiliary (carried) columns per edge: group columns it owns,
	// then FKs of its child edges.
	for _, g := range sh.GroupBy {
		t := sh.owner(g)
		if t == "" {
			return nil, fmt.Errorf("plan: group column %s is not produced by the plan", g)
		}
		e := sh.edge(t)
		if e == nil {
			e = sh.sharedKeyEdge(g)
		}
		if e == nil {
			return nil, fmt.Errorf("plan: group column %s must come from a joined dimension", g)
		}
		e.Aux = append(e.Aux, g)
	}
	for i := range sh.Joins {
		e := &sh.Joins[i]
		if e.Parent == "" {
			continue
		}
		if p := sh.edge(e.Parent); !contains(p.Aux, e.FK) {
			p.Aux = append(p.Aux, e.FK)
		}
	}

	// Validate the aggregate and the predicates against ownership.
	cols := sh.Agg.Columns(make([]string, 0, 8))
	for _, c := range cols {
		if sh.owner(c) != sh.Fact {
			return nil, fmt.Errorf("plan: aggregate column %s is not a fact column", c)
		}
	}
	if sh.FactPred != nil {
		cols = sh.FactPred.Columns(cols[:0])
		for _, c := range cols {
			if sh.owner(c) != sh.Fact {
				return nil, fmt.Errorf("plan: fact predicate column %s is not a fact column", c)
			}
		}
	}
	for i := range sh.Joins {
		e := &sh.Joins[i]
		if e.Pred == nil {
			continue
		}
		cols = e.Pred.Columns(cols[:0])
		for _, c := range cols {
			if sh.owner(c) != e.Table {
				return nil, fmt.Errorf("plan: predicate column %s does not belong to %s", c, e.Table)
			}
		}
	}
	for _, k := range sh.OrderBy {
		if k.Col != sh.AggName && !contains(sh.GroupBy, k.Col) {
			return nil, fmt.Errorf("plan: order column %s is neither grouped nor the aggregate", k.Col)
		}
	}
	return sh, nil
}

// owner is the table producing col in the pipeline bound so far: the fact
// table or a join's, "" when no table has it.
func (sh *Shape) owner(col string) string {
	if sh.FactSchema.Has(col) {
		return sh.Fact
	}
	for i := range sh.Joins {
		if sh.Joins[i].Schema.Has(col) {
			return sh.Joins[i].Table
		}
	}
	return ""
}

// edge is the join of table, nil when it is not joined.
func (sh *Shape) edge(table string) *JoinEdge {
	for i := range sh.Joins {
		if sh.Joins[i].Table == table {
			return &sh.Joins[i]
		}
	}
	return nil
}

// sharedKeyEdge is the last join whose key is spelled col on both sides: a
// fact-owned column only that join's build side can supply to a GROUP BY.
func (sh *Shape) sharedKeyEdge(col string) *JoinEdge {
	for i := len(sh.Joins) - 1; i >= 0; i-- {
		if e := &sh.Joins[i]; e.PK == col && e.FK == col {
			return e
		}
	}
	return nil
}

// Tables lists every table the shape reads: the fact table first, then the
// joined tables sorted by name, so equal join sets list equally whatever
// their declaration order.
func (sh *Shape) Tables() []string {
	tables := make([]string, 1, 1+len(sh.Joins))
	tables[0] = sh.Fact
	for i := range sh.Joins {
		tables = append(tables, sh.Joins[i].Table)
	}
	sort.Strings(tables[1:])
	return tables
}

// MaxDepth is the deepest join edge: 1 for a pure star, ≥ 2 for a
// snowflake.
func (sh *Shape) MaxDepth() int {
	d := 0
	for i := range sh.Joins {
		if sh.Joins[i].Depth > d {
			d = sh.Joins[i].Depth
		}
	}
	return d
}

// FactColumns is the fact read set in scan order: depth-1 FKs (bind
// order), then measure columns, then fact-predicate columns, deduplicated.
func (sh *Shape) FactColumns() []string {
	var cols []string
	seen := map[string]bool{}
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	for i := range sh.Joins {
		if sh.Joins[i].Depth == 1 {
			add(sh.Joins[i].FK)
		}
	}
	for _, c := range expr.ColumnsOf([]expr.Expr{sh.Agg}, nil) {
		add(c)
	}
	for _, c := range expr.ColumnsOf(nil, []expr.Pred{sh.FactPred}) {
		add(c)
	}
	return cols
}

// FactRead is the schema of the fact scan: FactColumns projected from the
// fact table.
func (sh *Shape) FactRead() (*records.Schema, error) {
	s, err := sh.FactSchema.Project(sh.FactColumns()...)
	if err != nil {
		return nil, fmt.Errorf("plan: fact read set: %w", err)
	}
	return s, nil
}

// GroupSchema is the shuffle key schema of the final aggregation.
func (sh *Shape) GroupSchema() *records.Schema {
	fields := make([]records.Field, 0, len(sh.GroupBy))
	for _, g := range sh.GroupBy {
		fields = append(fields, records.F(g, sh.columnKind(g)))
	}
	return records.NewSchema(fields...)
}

// ResultSchema is the schema of the final result rows.
func (sh *Shape) ResultSchema() *records.Schema {
	fields := make([]records.Field, 0, len(sh.GroupBy)+1)
	for _, g := range sh.GroupBy {
		fields = append(fields, records.F(g, sh.columnKind(g)))
	}
	fields = append(fields, records.F(sh.AggName, records.KindFloat64))
	return records.NewSchema(fields...)
}

// Orders is the effective result ordering: OrderBy if present, else the
// group columns ascending.
func (sh *Shape) Orders() []OrderKey {
	if len(sh.OrderBy) > 0 {
		return sh.OrderBy
	}
	keys := make([]OrderKey, len(sh.GroupBy))
	for i, g := range sh.GroupBy {
		keys[i] = OrderKey{Col: g}
	}
	return keys
}

func (sh *Shape) columnKind(col string) records.Kind {
	if i := sh.FactSchema.Index(col); i >= 0 {
		return sh.FactSchema.Field(i).Kind
	}
	for _, e := range sh.Joins {
		if i := e.Schema.Index(col); i >= 0 {
			return e.Schema.Field(i).Kind
		}
	}
	panic(fmt.Sprintf("plan: unknown column %q", col))
}

// Step is one join of the physical pipeline with its column liveness
// resolved: In is the probe stream's schema entering the step, Out the
// stream leaving it (dead columns dropped, aux columns appended).
type Step struct {
	JoinEdge
	// ApplyFactPred marks the step that evaluates the fact predicate
	// (always the first, where the fact stream is first materialized).
	ApplyFactPred bool
	In, Out       *records.Schema
}

// AuxSchema is the build-side payload schema: the columns of Aux, typed
// from the edge's table schema.
func (st *Step) AuxSchema() *records.Schema {
	fields := make([]records.Field, 0, len(st.Aux))
	for _, a := range st.Aux {
		fields = append(fields, st.Schema.Field(st.Schema.MustIndex(a)))
	}
	return records.NewSchema(fields...)
}

// Linearize computes the join pipeline in the plan's bind order — the
// order the Hive lowering executes, matching Hive's join-order faithfulness
// rather than re-optimizing.
func (sh *Shape) Linearize() ([]Step, error) {
	order := make([]int, len(sh.Joins))
	for i := range order {
		order[i] = i
	}
	return sh.Pipeline(order)
}

// Pipeline computes the join pipeline for an explicit edge order (indexes
// into Joins). The order must be topological: a snowflake edge after the
// edge producing its FK. Column liveness is resolved per step: a consumed
// FK is dropped as soon as no later step, measure, or group column needs
// it, and fact-predicate-only columns are dropped by the first step. An FK
// the edge's own Aux re-supplies under the same name (a shared-name key that
// is grouped on) is dropped too: the build side's equal copy replaces it.
func (sh *Shape) Pipeline(order []int) ([]Step, error) {
	if len(order) != len(sh.Joins) {
		return nil, fmt.Errorf("plan: pipeline order has %d entries for %d joins", len(order), len(sh.Joins))
	}
	produced := map[string]bool{sh.Fact: true}
	for _, i := range order {
		if i < 0 || i >= len(sh.Joins) {
			return nil, fmt.Errorf("plan: pipeline order index %d out of range", i)
		}
		e := &sh.Joins[i]
		parent := e.Parent
		if parent == "" {
			parent = sh.Fact
		}
		if !produced[parent] {
			return nil, fmt.Errorf("plan: pipeline order joins %s before its parent %s", e.Table, parent)
		}
		produced[e.Table] = true
	}

	measures := map[string]bool{}
	for _, c := range expr.ColumnsOf([]expr.Expr{sh.Agg}, nil) {
		measures[c] = true
	}
	predCols := map[string]bool{}
	for _, c := range expr.ColumnsOf(nil, []expr.Pred{sh.FactPred}) {
		predCols[c] = true
	}
	grouped := map[string]bool{}
	for _, g := range sh.GroupBy {
		grouped[g] = true
	}
	liveLater := func(col string, after int) bool {
		if measures[col] || grouped[col] {
			return true
		}
		for _, i := range order[after+1:] {
			if sh.Joins[i].FK == col {
				return true
			}
		}
		return false
	}

	factRead, err := sh.FactRead()
	if err != nil {
		return nil, err
	}
	steps := make([]Step, 0, len(order))
	cur := factRead
	for k, i := range order {
		e := sh.Joins[i]
		if !cur.Has(e.FK) {
			return nil, fmt.Errorf("plan: join key %s not live entering the %s join", e.FK, e.Table)
		}
		var fields []records.Field
		for _, f := range cur.Fields() {
			if f.Name == e.FK && (!liveLater(f.Name, k) || contains(e.Aux, f.Name)) {
				continue
			}
			if k == 0 && predCols[f.Name] && !measures[f.Name] && !liveLater(f.Name, k) && f.Name != e.FK {
				// Fact-predicate-only columns die after the first step
				// evaluates the predicate.
				continue
			}
			fields = append(fields, f)
		}
		for _, a := range e.Aux {
			fields = append(fields, e.Schema.Field(e.Schema.MustIndex(a)))
		}
		st := Step{JoinEdge: e, ApplyFactPred: k == 0, In: cur, Out: records.NewSchema(fields...)}
		steps = append(steps, st)
		cur = st.Out
	}
	return steps, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
