package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, the rule numpy and most reports use.
// xs need not be sorted; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: below that the "percentile" is one or two outliers.
const minTailSamples = 10

// samplesBeyond is the number of samples strictly above the p-th percentile
// rank in a set of n.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// highestPercentile returns the highest of the candidate percentiles that
// still has minTailSamples samples beyond it in a set of n, or 50.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if samplesBeyond(n, p) >= minTailSamples {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first, second and third quartile with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// what the benchmark driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// j = i*(n+1)/4 clamped to 1..n-1, then delta = i*(n+1) - 4j: with a
		// clamped j the point lies outside s[j-1]..s[j] and is extrapolated,
		// exactly as Python does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median: the
// run-to-run spread every bound in BENCHMARK.json is compared with.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
