package plan

import "clydesdale/internal/records"

// Physical is a lowered plan: the shape, its join pipeline, and how the
// pipeline is cut into MapReduce jobs. Lower builds it and OneStepPerPass
// re-cuts it; there is no other way to obtain one.
type Physical struct {
	Shape *Shape
	Steps []Step
	// Passes cuts Steps into jobs: pass i probes the next Passes[i] steps'
	// tables together, each table resident on every node while the pass
	// runs, and the last pass also aggregates. The counts sum to len(Steps).
	Passes []int
}

// Lower compiles a bound logical plan into the physical plan the engine
// runs: Decompose, then Shape.Lower.
func Lower(l *Logical) (*Physical, error) {
	sh, err := Decompose(l)
	if err != nil {
		return nil, err
	}
	return sh.Lower()
}

// Lower builds the physical plan of a decomposed shape. Steps are ordered
// level by level (a star keeps its bind order): a shape whose joins all hang
// off the fact is one star-join job, and a snowflake is one pass per depth
// level — every table of a level probes a key the levels before it carried
// — map-only but for the last, which aggregates. It reads no table, so it is
// cheap enough for every query that runs.
func (sh *Shape) Lower() (*Physical, error) {
	// Edges level by level, bind order within a level; a level's parents
	// are all in the level before it.
	order := make([]int, 0, len(sh.Joins))
	var passes []int
	for depth, max := 1, sh.MaxDepth(); depth <= max; depth++ {
		n := len(order)
		for i := range sh.Joins {
			if sh.Joins[i].Depth == depth {
				order = append(order, i)
			}
		}
		passes = append(passes, len(order)-n)
	}
	steps, err := sh.Pipeline(order)
	if err != nil {
		return nil, err
	}
	return &Physical{Shape: sh, Steps: steps, Passes: passes}, nil
}

// PassSteps returns the steps of each pass, in pass order. A plan with no
// joins is still one pass, over zero tables: the fact scan aggregated.
func (p *Physical) PassSteps() [][]Step {
	if len(p.Steps) == 0 {
		return [][]Step{nil}
	}
	out := make([][]Step, len(p.Passes))
	next := 0
	for i, n := range p.Passes {
		out[i] = p.Steps[next : next+n]
		next += n
	}
	return out
}

// OneStepPerPass is the §5.1 fallback of p: the same steps, each in a pass
// of its own, so a node holds one hash table at a time instead of a pass's
// sum. The engine re-runs a plan this way when a pass runs out of node
// memory; the staged-plan tests and benchmarks obtain it the same way.
func (p *Physical) OneStepPerPass() *Physical {
	q := &Physical{Shape: p.Shape, Steps: p.Steps, Passes: make([]int, len(p.Steps))}
	for i := range q.Passes {
		q.Passes[i] = 1
	}
	return q
}

// MapJoinEntryBytes models one boxed hash table entry of a Hive-style
// mapjoin: object headers plus the carried aux payload.
func MapJoinEntryBytes(aux []records.Value) int64 {
	n := int64(48)
	for _, v := range aux {
		n += v.MemSize()
	}
	return n
}

// Stats is the argument Choose takes; it carries nothing.
type Stats struct{}

// Choose is Lower under the name the repository benchmark's plan.choose_ms
// probe (benchmark/probes.go), its one caller, still uses.
func Choose(l *Logical, _ *Stats) (*Physical, error) { return Lower(l) }
