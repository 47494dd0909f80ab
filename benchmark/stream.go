package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"clydesdale/internal/ssb"
)

// The serve_mix query stream. Everything here is a pure function of the
// seed: the same seed gives the same variants, the same order, the same
// tenants and the same due times.
//
// The stream is built in blocks of blockSize arrivals whose composition is
// fixed (blockMix): so many queries per flight, so many of them never seen
// before, so many strictly narrower than an earlier one. What the seed
// decides is which parameter values those are, which earlier variants the
// repeats pick (Zipf over introduction rank: recently popular stays
// popular), the order inside the block, who sends, and when. Fixing the
// composition keeps the result-cache hit fraction, and with it the work per
// query, equal across seeds; the spread between seeds is then noise, not
// workload.

const (
	blockSize      = 90 // arrivals per block
	openLoopRate   = 30 // arrivals per second: a block every 3 s
	tenants        = 200
	reportTenants  = 4
	reportingBurst = 8
)

// blockMix is the composition of one block, per flight: how many arrivals,
// how many of them first-time broad variants (result-cache misses), how
// many first-time narrow variants (answered from a cached broader result).
// Flight 4 arrives as two reporting bursts of eight.
//
// 25 of a block's 90 queries miss the result cache (hit fraction 0.72), and
// 13 of those are the heavy flights 3 and 4: the median falls well inside
// the hits and the 90th percentile inside the heavy misses, neither on the
// step between two kinds of query.
var blockMix = [5]struct{ total, fresh, narrow int }{
	1: {36, 8, 0}, // a scalar result has no group to narrow
	2: {18, 4, 1},
	3: {20, 6, 2},
	4: {16, 7, 1},
}

// variant is one distinct SQL statement of the stream.
type variant struct {
	id       int
	flight   int
	sql      string
	narrowOf int // id of the broader variant this one is a post-filter of, or -1
	// supplierRegion is the s_region a flight-3 variant filters on, so that
	// its narrowing can name a nation of that region.
	supplierRegion string
}

// arrival is one scheduled query.
type arrival struct {
	v      *variant
	tenant string
	burst  int           // arrivals of one reporting burst share it (and their due time); 0 = none
	due    time.Duration // offset from the start of the open-loop slice it falls in
}

type stream struct {
	rng      *rand.Rand
	variants []*variant
	// pool lists, per flight, the variants of earlier blocks in introduction
	// order: what repeats draw from.
	pool    [5][]*variant
	broad   [5][]*variant // the subset that may be narrowed
	used    [5]map[string]bool
	bursts  int
	reports int
}

func newStream(seed uint64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(int64(seed)))}
	for f := range s.used {
		s.used[f] = make(map[string]bool)
	}
	return s
}

// freshVariant draws parameter values not used before and renders the
// flight's template.
func (s *stream) freshVariant(flight int) *variant {
	for tries := 0; ; tries++ {
		sql, sRegion := s.render(flight)
		if s.used[flight][sql] {
			if tries > 1_000 {
				// The template's parameter space is spent (the tightest,
				// flight 1's 1008 statements at 8 a block, lasts 126
				// blocks; a window runs 40): fall back to repeating a
				// broad variant rather than spin.
				return s.broad[flight][s.zipfPick(len(s.broad[flight]))]
			}
			continue
		}
		s.used[flight][sql] = true
		v := &variant{id: len(s.variants), flight: flight, sql: sql, narrowOf: -1, supplierRegion: sRegion}
		s.variants = append(s.variants, v)
		return v
	}
}

func (s *stream) region() string { return ssb.Regions[s.rng.Intn(len(ssb.Regions))] }

// render draws one statement of the flight's template; for flight 3 it also
// returns the supplier region drawn.
func (s *stream) render(flight int) (sql, supplierRegion string) {
	r := s.rng
	switch flight {
	case 1:
		lo := r.Intn(9)
		return fmt.Sprintf("SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date "+
			"WHERE lo_orderdate = d_datekey AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d",
			1992+r.Intn(7), lo, lo+2, 16+2*r.Intn(16)), ""
	case 2:
		return fmt.Sprintf("SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 FROM lineorder, date, part, supplier "+
			"WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "+
			"AND p_category = 'MFGR#%d%d' AND s_region = '%s' AND lo_quantity < %d "+
			"GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
			1+r.Intn(5), 1+r.Intn(5), s.region(), 30+5*r.Intn(5)), ""
	case 3:
		sRegion := s.region()
		return fmt.Sprintf("SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue FROM customer, lineorder, supplier, date "+
			"WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "+
			"AND c_region = '%s' AND s_region = '%s' AND d_year >= %d AND d_year <= %d AND lo_quantity < %d "+
			"GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC",
			s.region(), sRegion, 1992+r.Intn(3), 1996+r.Intn(3), 30+5*r.Intn(5)), sRegion
	default:
		a := 1 + r.Intn(5)
		b := 1 + (a+r.Intn(4))%5 // a second, different manufacturer
		if a > b {
			a, b = b, a
		}
		return fmt.Sprintf("SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder "+
			"WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "+
			"AND c_region = '%s' AND s_region = '%s' AND p_mfgr IN ('MFGR#%d', 'MFGR#%d') AND lo_quantity < %d "+
			"GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
			s.region(), s.region(), a, b, 30+5*r.Intn(5)), ""
	}
}

// narrowVariant derives a strictly narrower statement from a broad one: an
// extra conjunct over a group-by column, which the result cache answers by
// filtering the broader result's rows.
func (s *stream) narrowVariant(of *variant) *variant {
	var extra string
	switch of.flight {
	case 2:
		extra = fmt.Sprintf(" AND d_year = %d", 1992+s.rng.Intn(7))
	case 3:
		var nations []string
		for _, n := range ssb.Nations {
			if n.Region == of.supplierRegion {
				nations = append(nations, n.Name)
			}
		}
		extra = fmt.Sprintf(" AND s_nation = '%s'", nations[s.rng.Intn(len(nations))])
	default:
		y := 1992 + s.rng.Intn(6)
		extra = fmt.Sprintf(" AND d_year IN (%d, %d)", y, y+1)
	}
	const marker = " GROUP BY"
	i := strings.Index(of.sql, marker)
	v := &variant{id: len(s.variants), flight: of.flight, sql: of.sql[:i] + extra + of.sql[i:], narrowOf: of.id}
	s.variants = append(s.variants, v)
	return v
}

// zipfPick draws an index in [0, n) with probability proportional to
// 1/(rank+1), rank 0 being the most recently introduced variant.
func (s *stream) zipfPick(n int) int {
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / float64(r+1)
	}
	x := s.rng.Float64() * total
	for r := 0; r < n; r++ {
		x -= 1 / float64(r+1)
		if x <= 0 {
			return n - 1 - r
		}
	}
	return 0
}

// warmup returns the variants whose answers the set-up computes before the
// window, so that the first block's repeats and narrowings have something
// to hit: one block's worth of first-time broad variants.
func (s *stream) warmup() []*variant {
	var out []*variant
	for f := 1; f <= 4; f++ {
		for i := 0; i < blockMix[f].fresh; i++ {
			v := s.freshVariant(f)
			s.pool[f] = append(s.pool[f], v)
			s.broad[f] = append(s.broad[f], v)
			out = append(out, v)
		}
	}
	return out
}

// nextBlock generates one block of arrivals, in order, without due times.
func (s *stream) nextBlock() []arrival {
	var interactive, reporting []arrival
	var introduced [5][]*variant
	var introducedBroad [5][]*variant
	for f := 1; f <= 4; f++ {
		mix := blockMix[f]
		var vs []*variant
		for i := 0; i < mix.fresh; i++ {
			v := s.freshVariant(f)
			vs = append(vs, v)
			introduced[f] = append(introduced[f], v)
			introducedBroad[f] = append(introducedBroad[f], v)
		}
		for i := 0; i < mix.narrow; i++ {
			// Narrow a variant of an earlier block: its answer is cached by
			// now whatever the order inside this block turns out to be.
			of := s.broad[f][s.zipfPick(len(s.broad[f]))]
			v := s.narrowVariant(of)
			vs = append(vs, v)
			introduced[f] = append(introduced[f], v)
		}
		for len(vs) < mix.total {
			vs = append(vs, s.pool[f][s.zipfPick(len(s.pool[f]))])
		}
		s.rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		for _, v := range vs {
			if f == 4 {
				reporting = append(reporting, arrival{v: v})
			} else {
				interactive = append(interactive, arrival{v: v, tenant: fmt.Sprintf("tenant-%d", s.rng.Intn(tenants))})
			}
		}
	}
	for f := 1; f <= 4; f++ {
		s.pool[f] = append(s.pool[f], introduced[f]...)
		s.broad[f] = append(s.broad[f], introducedBroad[f]...)
	}
	// An event is what arrives at one instant: one interactive query, or a
	// burst of reportingBurst flight-4 queries from one reporting tenant.
	events := make([][]arrival, 0, len(interactive)+len(reporting)/reportingBurst+1)
	for _, a := range interactive {
		events = append(events, []arrival{a})
	}
	for len(reporting) > 0 {
		n := reportingBurst
		if n > len(reporting) {
			n = len(reporting)
		}
		s.bursts++
		tenant := fmt.Sprintf("report-%d", s.reports%reportTenants)
		s.reports++
		burst := make([]arrival, n)
		for i := range burst {
			burst[i] = arrival{v: reporting[i].v, tenant: tenant, burst: s.bursts}
		}
		reporting = reporting[n:]
		events = append(events, burst)
	}
	s.rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	out := make([]arrival, 0, blockSize)
	for _, e := range events {
		out = append(out, e...)
	}
	return out
}

// block hands out the next block; with length > 0 its arrivals carry due
// times: a Poisson process conditioned on its count, that is, sorted uniform
// offsets over the length. A reporting burst is one event: its queries
// share one due time.
func (s *stream) block(length time.Duration) []arrival {
	as := s.nextBlock()
	if length <= 0 {
		return as
	}
	events := 0
	last := -1
	for _, a := range as {
		if a.burst == 0 || a.burst != last {
			events++
		}
		last = a.burst
	}
	times := make([]time.Duration, events)
	for i := range times {
		times[i] = time.Duration(s.rng.Float64() * float64(length))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	e := -1
	last = -1
	for i := range as {
		if as[i].burst == 0 || as[i].burst != last {
			e++
		}
		last = as[i].burst
		as[i].due = times[e]
	}
	return as
}
