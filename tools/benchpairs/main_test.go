package main

import "testing"

// TestStatsMatchPythonQuantiles: quartiles as Python's
// statistics.quantiles(xs, n=4) gives them, the median as the middle one.
func TestStatsMatchPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want sideStats
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, sideStats{Q1: 1.75, Median: 3.5, Q3: 5.25}},
		{[]float64{10, 20}, sideStats{Q1: 7.5, Median: 15, Q3: 22.5}},
	} {
		if got := stats(c.xs); got != c.want {
			t.Errorf("stats(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// TestJudgeAppliesThePairedRule: nine pairs of ten and a median gain beyond
// the parent's interquartile distance improve a metric; eight pairs do not;
// a median worse by more than the bound regresses it; a parent spread wider
// than the bound leaves it unresolved.
func TestJudgeAppliesThePairedRule(t *testing.T) {
	lower := endToEnd{Name: "query_p50_ms", Better: "lower", Bound: 0.25}
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shifted := func(by float64, losses int) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p + by
			if i < losses {
				out[i] = p + 1
			}
		}
		return out
	}
	for _, c := range []struct {
		name                            string
		m                               endToEnd
		change                          []float64
		won                             int
		improved, regressed, unresolved bool
	}{
		{"nine of ten", lower, shifted(-20, 1), 9, true, false, false},
		{"eight of ten", lower, shifted(-20, 2), 8, false, false, false},
		{"inside the spread", lower, shifted(-4, 0), 10, false, false, false},
		{"worse beyond the bound", lower, shifted(30, 0), 0, false, true, false},
		{"higher is better", endToEnd{Better: "higher", Bound: 0.25}, shifted(-20, 0), 0, false, false, false},
		{"spread past the bound", endToEnd{Better: "lower", Bound: 0.01}, shifted(-20, 0), 10, true, false, true},
	} {
		v := judge(c.m, parent, c.change)
		if v.PairsWon != c.won || v.Improved != c.improved || v.Regressed != c.regressed || v.Unresolved != c.unresolved {
			t.Errorf("%s: won %d improved %v regressed %v unresolved %v, want %d %v %v %v",
				c.name, v.PairsWon, v.Improved, v.Regressed, v.Unresolved, c.won, c.improved, c.regressed, c.unresolved)
		}
	}
}
