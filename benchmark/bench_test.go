package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50.5}, {90, 90.1}, {99, 99.01}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// A percentile is reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(96, 90); got != 9 {
		t.Errorf("samplesBeyond(96, 90) = %d, want 9", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	// Fewer than four values: Python extrapolates beyond the data.
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := relSpread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("relSpread = %v, want %v", got, (12-1.5)/4)
	}
}

func TestSliceNormalisation(t *testing.T) {
	if f := normFactor(refNominalMs, refNominalMs); f != 1 {
		t.Errorf("a host at nominal speed has factor %v, want 1", f)
	}
	// The factor uses the mean of the kernel samples around the slice, and
	// the kernel's elasticity: a host on which the kernel takes twice as
	// long is taken to run queries 2^refElasticity times slower.
	sl := &slice{refBefore: refNominalMs * 1.5, refAfter: refNominalMs * 2.5}
	half := math.Pow(0.5, refElasticity)
	if f := sl.factor(); math.Abs(f-half) > 1e-12 {
		t.Errorf("a host at half kernel speed has factor %v, want %v", f, half)
	}
	// A raw 400 ms on that host is a normalised 246 ms: inside a 250 ms SLO.
	s := sample{kind: "query", raw: 400 * time.Millisecond, slo: 250 * time.Millisecond}
	if sl.failed(s) {
		t.Error("246 ms normalised counted as an SLO miss against 250 ms")
	}
	s.raw = 420 * time.Millisecond
	if !sl.failed(s) {
		t.Error("259 ms normalised did not count as an SLO miss against 250 ms")
	}
	// Failures: an error, an SLO miss, and every arrival left unanswered
	// when the slice closed.
	sl.samples = []sample{s, {kind: "query", raw: time.Millisecond}, {kind: "query", failed: true}}
	sl.backlog = 2
	if attempted, failed := sl.tally(); attempted != 5 || failed != 4 {
		t.Errorf("tally = %d attempted, %d failed; want 5 and 4", attempted, failed)
	}
	// End to end: two slices on hosts of different speed give the same
	// normalised throughput and latency.
	h := &harness{cfg: runConfig{workload: "ssb_star"}}
	for _, kernel := range []float64{1, 2} { // kernel takes this many times nominal
		slow := math.Pow(kernel, refElasticity) // and queries this many times longer
		sl := &slice{refBefore: refNominalMs * kernel, refAfter: refNominalMs * kernel, throughput: true,
			wall: time.Duration(slow * float64(time.Second))}
		for i := 0; i < 10; i++ {
			sl.samples = append(sl.samples, sample{kind: "query", flight: 1 + i%4, roles: roleLatency | roleFlight,
				raw: time.Duration(slow * float64(100*time.Millisecond))})
		}
		sl.samples = append(sl.samples, sample{kind: "rollin", rows: 2048, raw: time.Duration(slow * float64(10*time.Millisecond))})
		h.slices = append(h.slices, sl)
	}
	// A spare slice, run past the measured part of the window, feeds nothing.
	h.slices = append(h.slices, &slice{refBefore: refNominalMs, refAfter: refNominalMs, throughput: true, spare: true,
		wall: time.Second, samples: []sample{{kind: "query", flight: 1, roles: roleLatency | roleFlight, raw: time.Second}}})
	m := make(metricSet)
	if n := endToEndMetrics(h, m, 1); n != 20 {
		t.Fatalf("counted %d queries, want 20", n)
	}
	for name, want := range map[string]float64{
		"queries_per_s": 10, "query_p50_ms": 100, "query_p90_ms": 100, "flight3_p50_ms": 100,
		"rollin_p50_ms": 10, "rollin_rows_per_s": 204800, "bench.raw_queries_per_s": 10 - 0.25*(10-10/math.Pow(2, refElasticity)), // upper quartile of the two slices' raw rates
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSpansSelfTimeAndCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "slice", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "query", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "query", Start: 40, End: 90}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "core.run", Start: 15, End: 45},
	}
	self := selfTimes(spans)
	if self["slice"] != 20 || self["query"] != (40-30)+50 || self["core.run"] != 30 {
		t.Errorf("self times = %v", self)
	}
	if c := coverOf(spans, "slice"); c != 0.8 {
		t.Errorf("cover of slice = %v, want 0.8", c)
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	blocks := func(seed uint64) [][]arrival {
		s := newStream(seed)
		s.warmup()
		return [][]arrival{s.block(3 * time.Second), s.block(3 * time.Second), s.block(0)}
	}
	flat := func(bs [][]arrival) []string {
		var out []string
		for _, b := range bs {
			for _, a := range b {
				out = append(out, a.v.sql+"|"+a.tenant+"|"+a.due.String())
			}
		}
		return out
	}
	a, b, c := flat(blocks(7)), flat(blocks(7)), flat(blocks(8))
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same stream")
	}
	if len(a) != 3*blockSize {
		t.Errorf("three blocks hold %d arrivals, want %d", len(a), 3*blockSize)
	}
}

// TestStreamComposition checks what makes serve_mix comparable across
// seeds: every block has the same number of first-time, narrowed and
// repeated queries per flight, whatever the seed, and that composition puts
// the result-cache hit fraction inside its 0.6-0.75 target.
func TestStreamComposition(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		s := newStream(seed)
		seen := make(map[int]bool)
		for _, v := range s.warmup() {
			seen[v.id] = true
		}
		// 45 blocks: more than the fastest host runs in a window.
		for b := 0; b < 45; b++ {
			var fresh, narrow, total [5]int
			var prevDue time.Duration
			bursts := make(map[int][]arrival)
			for _, a := range s.block(3 * time.Second) {
				total[a.v.flight]++
				if !seen[a.v.id] {
					seen[a.v.id] = true
					if a.v.narrowOf >= 0 {
						narrow[a.v.flight]++
						if !seen[a.v.narrowOf] {
							t.Errorf("seed %d block %d: variant %d narrows %d, which has not been sent", seed, b, a.v.id, a.v.narrowOf)
						}
					} else {
						fresh[a.v.flight]++
					}
				}
				if a.due < prevDue || a.due >= 3*time.Second {
					t.Errorf("seed %d block %d: due times not sorted inside the block: %v after %v", seed, b, a.due, prevDue)
				}
				prevDue = a.due
				if a.burst != 0 {
					bursts[a.burst] = append(bursts[a.burst], a)
				}
			}
			hits := 0
			for f := 1; f <= 4; f++ {
				if total[f] != blockMix[f].total || fresh[f] != blockMix[f].fresh || narrow[f] != blockMix[f].narrow {
					t.Errorf("seed %d block %d flight %d: total/fresh/narrow = %d/%d/%d, want %+v",
						seed, b, f, total[f], fresh[f], narrow[f], blockMix[f])
				}
				hits += total[f] - fresh[f]
			}
			if frac := float64(hits) / blockSize; frac < 0.6 || frac > 0.75 {
				t.Errorf("result-cache hit fraction by construction is %.3f, outside 0.6-0.75", frac)
			}
			for id, as := range bursts {
				if len(as) != reportingBurst {
					t.Errorf("burst %d has %d queries, want %d", id, len(as), reportingBurst)
				}
				for _, a := range as {
					if a.tenant != as[0].tenant || a.due != as[0].due || a.v.flight != 4 {
						t.Errorf("burst %d is not one tenant's flight-4 queries at one instant: %+v", id, a)
					}
				}
			}
		}
	}
}

// TestStreamOutlastsItsTemplates: once a template has no unused statement
// left the stream repeats broad variants; it neither spins nor panics.
func TestStreamOutlastsItsTemplates(t *testing.T) {
	s := newStream(4)
	s.warmup()
	for b := 0; b < 150; b++ {
		if n := len(s.block(0)); n != blockSize {
			t.Fatalf("block %d holds %d arrivals, want %d", b, n, blockSize)
		}
	}
}

func TestMetricNamesAndLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", len(perLayer))
	}
	seen := make(map[string]bool)
	for _, list := range [][]metricDef{endToEnd, perLayer, extraLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %v", d.Name, nameRE)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s is defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, d := range perLayer {
		if d.layer() == "end_to_end" {
			t.Errorf("per-layer metric %s is not named <module>.<metric>", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the catalogue
// the harness emits from: same workloads, same names in the same order,
// same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %q / %q differs from the harness", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

// TestSQLTextMatchesCatalog: the statements the sql probe parses are the 13
// SSB queries, fingerprint for fingerprint.
func TestSQLTextMatchesCatalog(t *testing.T) {
	cat := &core.Catalog{
		FactName: ssb.TableLineorder, FactSchema: ssb.LineorderSchema,
		DimSchemas: map[string]*records.Schema{
			ssb.TableCustomer: ssb.CustomerSchema, ssb.TableSupplier: ssb.SupplierSchema,
			ssb.TablePart: ssb.PartSchema, ssb.TableDate: ssb.DateSchema,
		},
	}
	fingerprint := func(q *core.Query) string {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := plan.Decompose(l)
		if err != nil {
			t.Fatal(err)
		}
		k := plan.KeyOf(sh)
		return k.Fingerprint()
	}
	star := sql.StarFromCatalog(cat, cat.FactName)
	for _, q := range ssb.Queries() {
		parsed, err := sql.ParseStar(ssbSQL[q.Name], star)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got, want := fingerprint(parsed), fingerprint(q); got != want {
			t.Errorf("%s: SQL text computes\n%s\nthe catalogue query\n%s", q.Name, got, want)
		}
	}
}

func TestFlippedGoldenIsCaught(t *testing.T) {
	gen := ssb.NewBenchGenerator(0.05, 5000, 3)
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	good, err := refexec.Run(gen, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Rows) == 0 {
		t.Fatal("Q2.1 is empty on the test dataset")
	}
	kept := []stored{{key: "Q2.1", rs: good}}
	if _, wrong, err := checkStored(kept, map[string]*results.ResultSet{"Q2.1": good}); err != nil || wrong != 0 {
		t.Fatalf("a right answer counted as wrong: wrong=%d err=%v", wrong, err)
	}
	bad := &results.ResultSet{Schema: good.Schema, Rows: append([]records.Record(nil), good.Rows...)}
	agg := good.Schema.MustIndex(q.AggName)
	bad.Rows[0] = bad.Rows[0].Clone().Set(agg, records.Float(bad.Rows[0].At(agg).Float64()*(1+1e-6)))
	if _, wrong, _ := checkStored(kept, map[string]*results.ResultSet{"Q2.1": bad}); wrong != 1 {
		t.Errorf("a golden off by one part in a million went unnoticed: wrong=%d", wrong)
	}
	if sameSums(groupSums(good, q.AggName), groupSums(bad, q.AggName)) {
		t.Error("the additive oracle does not tell the flipped answer from the right one")
	}
	if _, _, err := checkStored(kept, nil); err == nil {
		t.Error("an answer without a golden was not reported")
	}
}
