package plan

import (
	"fmt"
	"io"
	"strings"
)

// KindOf names a plan of the given number of passes: "star" for one pass,
// "staged" for more. EXPLAIN and the "plan" span attribute both print it.
func KindOf(passes int) string {
	if passes > 1 {
		return "staged"
	}
	return "star"
}

// Explain renders a physical plan as deterministic text: the kind (star for
// one pass, staged for more) and pass count, the fact scan, then one line
// per join step led by the pass that runs it (steps with equal pass numbers
// share a job) with its join and filter text. The 13 SSB plans are
// golden-pinned on this format, so a change to the lowering shows up in
// review as golden diffs.
func Explain(w io.Writer, p *Physical) error {
	sh := p.Shape
	var b strings.Builder
	passes := p.PassSteps()
	fmt.Fprintf(&b, "plan %s: kind=%s passes=%d\n", sh.Name, KindOf(len(passes)), len(passes))
	fmt.Fprintf(&b, "  scan %s read=[%s]", sh.Fact, strings.Join(sh.FactColumns(), " "))
	if sh.FactPred != nil {
		fmt.Fprintf(&b, " where %s", sh.FactPred)
	}
	b.WriteByte('\n')
	for pi, steps := range passes {
		for i := range steps {
			st := &steps[i]
			fmt.Fprintf(&b, "  pass %d: join %s on %s = %s", pi+1, st.Table, st.FK, st.PK)
			if st.Parent != "" {
				fmt.Fprintf(&b, " (via %s, depth %d)", st.Parent, st.Depth)
			}
			if st.Pred != nil {
				fmt.Fprintf(&b, " where %s", st.Pred)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "  aggregate %s(%s)", strings.ToUpper("sum"), sh.Agg)
	fmt.Fprintf(&b, " as %s", sh.AggName)
	if len(sh.GroupBy) > 0 {
		fmt.Fprintf(&b, " group by [%s]", strings.Join(sh.GroupBy, " "))
	}
	b.WriteByte('\n')
	if len(sh.OrderBy) > 0 {
		b.WriteString("  order by")
		for i, k := range sh.OrderBy {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %s", k.Col)
			if k.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
