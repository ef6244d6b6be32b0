// Package metrics is the simulator's counting layer: a registry of named
// counters, gauges, log-bucketed latency histograms and sim-time series,
// and deterministic exporters (Prometheus-style text, CSV). Per-request
// traces are internal/telemetry's spans.
//
// Everything is keyed on simulated time, so a run with the same seed and
// configuration produces byte-identical exports. The simulator is
// single-threaded, so no instrument takes locks. Every instrument method
// is safe on a nil receiver and does nothing, which lets hot paths cache
// instrument pointers once and skip all bookkeeping when instrumentation
// is disabled:
//
//	reg := metrics.NewRegistry()        // or nil to disable
//	c := reg.Counter("array_user_reads") // nil when reg is nil
//	c.Inc()                              // no-op when c is nil
package metrics

import "sort"

// Registry holds named instruments. The zero value is not usable; a nil
// *Registry is a valid "disabled" registry whose getters return nil
// instruments.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the default latency bucketing (0.25 ms base, doubling, 28 buckets —
// top finite bound ≈ 9.3 simulated hours).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(0.25, 2, 28)
		r.hists[name] = h
	}
	return h
}

// Series returns the named time series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// sortedKeys returns map keys in lexicographic order, the export order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Counter is a monotonically increasing integer.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds d, which must be non-negative.
func (c *Counter) Add(d int64) {
	if c != nil && d > 0 {
		c.n += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a settable float value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates observations into logarithmic buckets: bucket i
// covers (base·growth^(i−1), base·growth^i], the first bucket covers
// (−inf, base], and one overflow bucket catches everything beyond the
// last bound. Memory is fixed at construction, unlike stats.Sample which
// retains every observation.
type Histogram struct {
	base, growth float64
	counts       []int64 // len = buckets; counts[len-1] is the overflow
	count        int64
	sum          float64
	min, max     float64
}

func newHistogram(base, growth float64, buckets int) *Histogram {
	return &Histogram{base: base, growth: growth, counts: make([]int64, buckets)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	ub := h.base
	for i := 0; i < len(h.counts)-1; i++ {
		if v <= ub {
			h.counts[i]++
			return
		}
		ub *= h.growth
	}
	h.counts[len(h.counts)-1]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound on the q-th quantile (0 <= q <= 1): the
// upper bound of the bucket holding the q·count-th observation. Returns 0
// when empty; observations in the overflow bucket report the recorded max.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	ub := h.base
	for i, c := range h.counts {
		seen += c
		if seen > target {
			if i == len(h.counts)-1 {
				return h.max
			}
			return ub
		}
		ub *= h.growth
	}
	return h.max
}

// Summary is a histogram's headline statistics in one struct. Quantiles
// are bucket upper bounds (see Quantile); P999 is the 99.9th percentile,
// the tail the paper's continuous-operation argument cares about.
type Summary struct {
	Count               int64
	Mean                float64
	Min, Max            float64
	P50, P90, P99, P999 float64
}

// Summary returns the histogram's summary statistics (zero value on nil
// or empty).
func (h *Histogram) Summary() Summary {
	if h == nil || h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.count, Mean: h.Mean(), Min: h.min, Max: h.max,
		P50: h.Quantile(0.50), P90: h.Quantile(0.90),
		P99: h.Quantile(0.99), P999: h.Quantile(0.999),
	}
}

// Series is a sequence of (sim-time, value) samples appended on a fixed
// cadence by the runner's sampler and exported as CSV.
type Series struct {
	ts []float64
	vs []float64
}

// Observe appends one sample. Times must be non-decreasing (the sampler's
// cadence guarantees it); Observe does not check.
func (s *Series) Observe(t, v float64) {
	if s == nil {
		return
	}
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ts)
}

// Last returns the most recent sample, or zeros when empty.
func (s *Series) Last() (t, v float64) {
	if s == nil || len(s.ts) == 0 {
		return 0, 0
	}
	return s.ts[len(s.ts)-1], s.vs[len(s.vs)-1]
}
