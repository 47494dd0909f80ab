package ssb

import (
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// Snowflake schemas for the planner oracle: a generated fact table whose
// dimension chains extend beyond a star — each chain's table may itself
// reference a deeper table (depth ≤ 3), the shape the lowering runs as one
// join pass per depth level. Everything is a pure
// function of the seed, so a failing property-test case reproduces from
// its seed alone.

// SnowTable is one generated dimension table. Its schema is
// <name>_pk, <name>_attr (a low-cardinality string), <name>_val (an int64
// measure-ish column for predicates), and — when the table continues the
// chain — <name>_fk referencing the child table's pk.
type SnowTable struct {
	Name     string
	Parent   string // "" when the fact table holds the referencing FK
	Child    string // "" when the chain ends here
	Depth    int    // 1 = joined from the fact table
	Rows     int64
	AttrCard int64 // distinct <name>_attr values
	Schema   *records.Schema
}

// Snowflake is a generated snowflake dataset description: 2–3 chains of
// depth 1–3 hanging off one fact table, with the first chain always at
// least depth 2 so every generated schema has a snowflake edge.
type Snowflake struct {
	Seed       uint64
	FactRows   int64
	FactName   string
	FactSchema *records.Schema // f_m1, f_m2, one f_<chain-top>_fk per chain
	Tables     []SnowTable     // chain by chain, fact-adjacent table first
}

// GenSnowflake derives a snowflake schema from the seed: chain count,
// depths, table sizes, and attribute cardinalities all come from one
// splitmix stream.
func GenSnowflake(seed uint64, factRows int64) *Snowflake {
	if factRows <= 0 {
		factRows = 4096
	}
	r := &rng{state: seed ^ 0x51_7ab1e5_0f_5d0e5}
	r.next()
	s := &Snowflake{Seed: seed, FactRows: factRows, FactName: "fact"}

	chains := 2 + r.intn(2) // 2 or 3
	factFields := []records.Field{
		records.F("f_m1", records.KindInt64),
		records.F("f_m2", records.KindInt64),
	}
	for c := int64(0); c < chains; c++ {
		depth := 1 + int(r.intn(3))
		if c == 0 && depth < 2 {
			depth = 2 // guarantee at least one snowflake chain
		}
		parent := ""
		name := fmt.Sprintf("sd%d", c+1)
		for d := 1; d <= depth; d++ {
			t := SnowTable{
				Name:     name,
				Parent:   parent,
				Depth:    d,
				Rows:     32 + r.intn(160),
				AttrCard: 3 + r.intn(4),
			}
			fields := []records.Field{
				records.F(name+"_pk", records.KindInt64),
				records.F(name+"_attr", records.KindString),
				records.F(name+"_val", records.KindInt64),
			}
			if d < depth {
				t.Child = name + "x"
				fields = append(fields, records.F(name+"_fk", records.KindInt64))
			}
			t.Schema = records.NewSchema(fields...)
			s.Tables = append(s.Tables, t)
			parent, name = name, name+"x"
		}
		top := &s.Tables[len(s.Tables)-depth]
		factFields = append(factFields, records.F("f_"+top.Name+"_fk", records.KindInt64))
	}
	s.FactSchema = records.NewSchema(factFields...)
	return s
}

// Table returns the named table's description.
func (s *Snowflake) Table(name string) *SnowTable {
	for i := range s.Tables {
		if s.Tables[i].Name == name {
			return &s.Tables[i]
		}
	}
	return nil
}

// Each streams a table's rows. Row i of each table is a pure function of
// (Seed, table, i); FK values are uniform over the referenced table's pk
// domain [1, rows], so every join finds a match and predicates alone
// control selectivity.
func (s *Snowflake) Each(table string, fn func(records.Record) error) error {
	if table == s.FactName {
		return s.eachFact(fn)
	}
	t := s.Table(table)
	if t == nil {
		return fmt.Errorf("ssb: unknown snowflake table %q", table)
	}
	g := &Generator{Seed: s.Seed}
	for i := int64(0); i < t.Rows; i++ {
		r := g.rngFor("snow-"+t.Name, i)
		vals := []records.Value{
			records.Int(i + 1),
			records.Str(fmt.Sprintf("%s-a%d", t.Name, r.intn(t.AttrCard))),
			records.Int(r.intn(1000)),
		}
		if t.Child != "" {
			vals = append(vals, records.Int(1+r.intn(s.Table(t.Child).Rows)))
		}
		if err := fn(records.Make(t.Schema, vals...)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Snowflake) eachFact(fn func(records.Record) error) error {
	g := &Generator{Seed: s.Seed}
	// The FK fields follow f_m1, f_m2 in schema order; resolve their top
	// tables once.
	var tops []*SnowTable
	for i := 2; i < s.FactSchema.Len(); i++ {
		name := s.FactSchema.Field(i).Name
		tops = append(tops, s.Table(name[len("f_"):len(name)-len("_fk")]))
	}
	for i := int64(0); i < s.FactRows; i++ {
		r := g.rngFor("snow-fact", i)
		vals := []records.Value{
			records.Int(r.intn(100)),
			records.Int(1 + r.intn(1000)),
		}
		for _, t := range tops {
			vals = append(vals, records.Int(1+r.intn(t.Rows)))
		}
		if err := fn(records.Make(s.FactSchema, vals...)); err != nil {
			return err
		}
	}
	return nil
}

// SnowLayout records where a materialized snowflake dataset lives.
type SnowLayout struct {
	Root    string
	FactCIF string
	FactRC  string
	Dims    map[string]string
}

// LoadSnowflake materializes the snowflake dataset: the fact table in both
// CIF (the Clydesdale engine) and RCFile (the Hive baseline),
// every chain table as a row table.
func LoadSnowflake(fs *hdfs.FileSystem, s *Snowflake, root string) (*SnowLayout, error) {
	lay := &SnowLayout{
		Root:    root,
		FactCIF: root + "/fact.cif",
		FactRC:  root + "/fact.rc",
		Dims:    make(map[string]string),
	}
	partRows := s.FactRows / int64(4*len(fs.Cluster().Nodes()))
	if partRows < 256 {
		partRows = 256
	}
	if _, err := colstore.WriteCIFTable(fs, lay.FactCIF, s.FactSchema, partRows,
		func(emit func(records.Record) error) error { return s.Each(s.FactName, emit) }); err != nil {
		return nil, fmt.Errorf("ssb: loading snowflake fact CIF: %w", err)
	}
	if _, err := colstore.WriteRCTable(fs, lay.FactRC, s.FactSchema, 0,
		func(emit func(records.Record) error) error { return s.Each(s.FactName, emit) }); err != nil {
		return nil, fmt.Errorf("ssb: loading snowflake fact RCFile: %w", err)
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		dir := root + "/" + t.Name
		if _, err := colstore.WriteRowTable(fs, dir, t.Schema,
			func(emit func(records.Record) error) error { return s.Each(t.Name, emit) }); err != nil {
			return nil, fmt.Errorf("ssb: loading snowflake table %s: %w", t.Name, err)
		}
		lay.Dims[t.Name] = dir
	}
	return lay, nil
}

// Catalog exposes the CIF layout to the Clydesdale engine; the Hive
// baseline reads the same catalog with FactDir set to FactRC.
func (l *SnowLayout) Catalog(s *Snowflake) *core.Catalog {
	dims := make(map[string]*records.Schema, len(s.Tables))
	for i := range s.Tables {
		dims[s.Tables[i].Name] = s.Tables[i].Schema
	}
	return &core.Catalog{
		FactName:   s.FactName,
		FactDir:    l.FactCIF,
		FactSchema: s.FactSchema,
		DimDirs:    l.Dims,
		DimSchemas: dims,
	}
}

// RandomSnowQuery derives query qi over the snowflake: every chain joined
// to a random depth (chain 0 always to its full depth, so the deep chain is
// always in play), a random subset of attr columns grouped, optional val
// predicates on the joined tables and a fact predicate on f_m2. Returned
// as a bound logical plan, ready for either engine.
func (s *Snowflake) RandomSnowQuery(qi int64) *plan.Logical {
	g := &Generator{Seed: s.Seed}
	r := g.rngFor("snow-query", qi)

	var root plan.Node = &plan.Scan{Table: s.FactName, Source: s.FactSchema, Fact: true}
	if r.intn(2) == 0 {
		root = &plan.Filter{
			Input: root,
			Pred:  expr.Le(expr.Col("f_m2"), expr.ConstInt(200+r.intn(800))),
		}
	}

	var groupBy []string
	// Walk the chains in table order: a chain starts at Depth 1.
	for i := 0; i < len(s.Tables); {
		// Chain extent [i, j).
		j := i + 1
		for j < len(s.Tables) && s.Tables[j].Depth > 1 {
			j++
		}
		depth := j - i
		join := 1 + int(r.intn(int64(depth)))
		if i == 0 {
			join = depth // the guaranteed-snowflake chain joins fully
		}
		fk := "f_" + s.Tables[i].Name + "_fk"
		for d := 0; d < join; d++ {
			t := &s.Tables[i+d]
			var right plan.Node = &plan.Scan{Table: t.Name, Source: t.Schema}
			if r.intn(3) == 0 {
				right = &plan.Filter{
					Input: right,
					Pred:  expr.Lt(expr.Col(t.Name+"_val"), expr.ConstInt(250+r.intn(700))),
				}
			}
			root = &plan.Join{Left: root, Right: right, LeftKey: fk, RightKey: t.Name + "_pk"}
			if r.intn(2) == 0 {
				groupBy = append(groupBy, t.Name+"_attr")
			}
			fk = t.Name + "_fk"
		}
		i = j
	}

	agg := expr.Expr(expr.Col("f_m1"))
	if r.intn(2) == 0 {
		agg = expr.Mul(expr.Col("f_m1"), expr.Col("f_m2"))
	}
	root = &plan.Aggregate{Input: root, Agg: agg, AggName: "total", GroupBy: groupBy}
	if len(groupBy) > 0 && r.intn(2) == 0 {
		keys := make([]plan.OrderKey, len(groupBy))
		for i, gcol := range groupBy {
			keys[i] = plan.OrderKey{Col: gcol}
		}
		root = &plan.Order{Input: root, Keys: keys}
	}
	return &plan.Logical{Name: fmt.Sprintf("snow-q%d", qi), Root: root}
}
