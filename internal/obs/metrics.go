package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically accumulating value (bytes read, tasks
// launched). Methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histSampleCap bounds a histogram's retained samples. Count / sum / min /
// max stay exact past it; quantiles come from a uniform reservoir (Algorithm
// R) over *all* observations, so a serving session running for hours reports
// percentiles of its whole history, not of its first 16384 warm-up requests.
const histSampleCap = 1 << 14

// Histogram records observations and reports percentile summaries. The zero
// value is ready to use; Seed makes the reservoir's replacement choices
// deterministic (the Registry seeds each histogram from its name, so scrapes
// are reproducible across runs given the same observation sequence).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	samples []float64
	rng     *rand.Rand
}

// Seed fixes the reservoir's random source. Call before the first overflow
// (in practice: at creation); later calls still apply to subsequent
// replacement decisions.
func (h *Histogram) Seed(seed int64) {
	h.mu.Lock()
	h.rng = rand.New(rand.NewSource(seed))
	h.mu.Unlock()
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < histSampleCap {
		h.samples = append(h.samples, v)
	} else {
		// Algorithm R: the i-th observation replaces a random reservoir
		// slot with probability cap/i, keeping the reservoir a uniform
		// sample of everything seen.
		if h.rng == nil {
			h.rng = rand.New(rand.NewSource(1))
		}
		if j := h.rng.Int63n(h.count); j < histSampleCap {
			h.samples[j] = v
		}
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the p-quantile (0 <= p <= 1) of the retained samples,
// or NaN with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	idx := int(p * float64(len(samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// HistogramSummary is a point-in-time percentile summary.
type HistogramSummary struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P99   float64
}

// Summary returns the histogram's summary.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	s := HistogramSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	at := func(p float64) float64 {
		idx := int(p * float64(len(samples)-1))
		return samples[idx]
	}
	s.P50, s.P90, s.P99 = at(0.50), at(0.90), at(0.99)
	return s
}

// Registry is a named set of counters, gauges and histograms shared by the
// instrumented layers. It owns the counters and histograms it hands out
// (accessors create on first use, so layers need no registration step) and
// reads everything else from the layer that keeps it: a count another layer
// already holds is a CounterFunc, and every level is a GaugeFunc, so no
// value is kept twice or copied in at scrape time. The value of a name
// another layer shows is read through Snapshot, not through Counter(name),
// which returns only the registry's own part.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	counterFuncs map[string][]func() int64
	gauges       map[string]func() int64
	hists        map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		counterFuncs: make(map[string][]func() int64),
		gauges:       make(map[string]func() int64),
		hists:        make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc adds fn as a source of the named counter, whose value is the
// sum of every source registered under it: two sessions sharing one engine
// total their counts. fn must be monotone and safe to call concurrently.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = append(r.counterFuncs[name], fn)
}

// GaugeFunc makes fn the named level. A level has one owner: a later
// registration under the name replaces the earlier one. fn must be safe to
// call concurrently.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram returns the named histogram, creating it on first use. New
// histograms are seeded from their name, so reservoir sampling — and with it
// every quantile a scrape reports — is deterministic for a given observation
// sequence.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		f := fnv.New64a()
		f.Write([]byte(name))
		h.Seed(int64(f.Sum64()))
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSummary
}

// Snapshot copies all current metric values. The registered funcs run
// outside the registry lock, so a func may take its owner's lock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := maps.Clone(r.counters)
	counterFuncs := maps.Clone(r.counterFuncs) // appends never touch a copied prefix
	gauges := maps.Clone(r.gauges)
	hists := maps.Clone(r.hists)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)+len(counterFuncs)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, fns := range counterFuncs {
		for _, fn := range fns {
			s.Counters[k] += fn()
		}
	}
	for k, fn := range gauges {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Summary()
	}
	return s
}

// WriteText dumps the registry in sorted, human-readable form. Histogram
// names ending in "_ns" render as durations.
func (r *Registry) WriteText(w io.Writer) {
	s := r.Snapshot()
	names := func(n int) []string { return make([]string, 0, n) }

	cn := names(len(s.Counters))
	for k := range s.Counters {
		cn = append(cn, k)
	}
	sort.Strings(cn)
	for _, k := range cn {
		fmt.Fprintf(w, "counter   %-32s %d\n", k, s.Counters[k])
	}

	gn := names(len(s.Gauges))
	for k := range s.Gauges {
		gn = append(gn, k)
	}
	sort.Strings(gn)
	for _, k := range gn {
		fmt.Fprintf(w, "gauge     %-32s %d\n", k, s.Gauges[k])
	}

	hn := names(len(s.Histograms))
	for k := range s.Histograms {
		hn = append(hn, k)
	}
	sort.Strings(hn)
	for _, k := range hn {
		h := s.Histograms[k]
		if h.Count == 0 {
			continue
		}
		if len(k) > 3 && k[len(k)-3:] == "_ns" {
			fmt.Fprintf(w, "histogram %-32s n=%d p50=%v p90=%v p99=%v max=%v\n", k, h.Count,
				time.Duration(h.P50).Round(time.Microsecond),
				time.Duration(h.P90).Round(time.Microsecond),
				time.Duration(h.P99).Round(time.Microsecond),
				time.Duration(h.Max).Round(time.Microsecond))
		} else {
			fmt.Fprintf(w, "histogram %-32s n=%d p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
				k, h.Count, h.P50, h.P90, h.P99, h.Max)
		}
	}
}
