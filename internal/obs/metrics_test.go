package obs

import (
	"bytes"
	"math"
	"testing"
)

// TestHistogramReservoir pins the satellite fix: quantiles must describe the
// whole observation stream, not its first histSampleCap values.
func TestHistogramReservoir(t *testing.T) {
	var h Histogram
	h.Seed(7)
	n := 4 * histSampleCap
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != int64(n) {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Min != 0 || s.Max != float64(n-1) {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	wantSum := float64(n) * float64(n-1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	// The old behavior kept only the first 16384 observations, putting P50
	// at ~8k. A uniform reservoir over 0..65535 puts it near 32768.
	mid := float64(n) / 2
	if math.Abs(s.P50-mid) > 0.1*float64(n) {
		t.Errorf("P50 = %v, want within 10%% of %v (reservoir, not prefix)", s.P50, mid)
	}
	if s.P99 < 0.9*float64(n) {
		t.Errorf("P99 = %v biased low; prefix truncation would cap it at %d", s.P99, histSampleCap)
	}
}

// TestHistogramDeterministic: same seed + same observations → identical
// summaries, the property /metrics scrape stability rests on.
func TestHistogramDeterministic(t *testing.T) {
	summaries := make([]HistogramSummary, 2)
	for run := 0; run < 2; run++ {
		var h Histogram
		h.Seed(42)
		for i := 0; i < 3*histSampleCap; i++ {
			h.Observe(float64((i * 2654435761) % 1000003))
		}
		summaries[run] = h.Summary()
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("seeded reservoir diverged: %+v vs %+v", summaries[0], summaries[1])
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mr.map_tasks":       "mr_map_tasks",
		"serve.slo.p99":      "serve_slo_p99",
		"9lives":             "_9lives",
		"ok_name:with_colon": "ok_name:with_colon",
		"bad-dash":           "bad_dash",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promGolden is the exact exposition for the fixture registry below — a
// golden: any ordering or formatting drift fails the scrape-stability
// criterion.
const promGolden = `# TYPE a_total counter
a_total 1
# TYPE b_total counter
b_total 2
# TYPE g gauge
g 5
# TYPE lat_ns summary
lat_ns{quantile="0.5"} 2000
lat_ns{quantile="0.9"} 2000
lat_ns{quantile="0.99"} 2000
lat_ns_sum 6000
lat_ns_count 3
`

func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("b").Add(2)
	r.GaugeFunc("g", func() int64 { return 5 })
	h := r.Histogram("lat_ns")
	h.Observe(1000)
	h.Observe(2000)
	h.Observe(3000)
	return r
}

func TestWritePromGolden(t *testing.T) {
	r := fixtureRegistry()
	var buf bytes.Buffer
	r.WriteProm(&buf)
	if buf.String() != promGolden {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), promGolden)
	}
	// Byte-identical across scrapes with no intervening activity.
	var again bytes.Buffer
	r.WriteProm(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two idle scrapes differ")
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	r := fixtureRegistry()
	var a, b bytes.Buffer
	r.WriteText(&a)
	r.WriteText(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("WriteText not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Sections in fixed order: counters, then gauges, then histograms, each
	// sorted by name.
	out := a.String()
	order := []string{"counter   a", "counter   b", "gauge     g", "histogram lat_ns"}
	last := -1
	for _, want := range order {
		idx := bytes.Index([]byte(out), []byte(want))
		if idx < 0 || idx < last {
			t.Fatalf("section order broken around %q:\n%s", want, out)
		}
		last = idx
	}
}
