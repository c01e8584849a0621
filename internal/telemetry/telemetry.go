// Package telemetry is the repository's zero-dependency observability layer:
// a metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms), lightweight span tracing with Chrome trace-event export, and
// an HTTP exposition surface (expvar, net/http/pprof, and a Prometheus-style
// text endpoint).
//
// The central design constraint is the *disabled-path cost contract*: every
// instrumented hot path holds a possibly-nil metric pointer and every method
// on every metric type is a no-op on a nil receiver. Code instruments itself
// unconditionally —
//
//	p.sendFrames[dst].Add(1)
//
// — and when telemetry is off the call is a single pointer check, measured
// at well under a nanosecond (see BenchmarkDisabledCounter). A nil *Registry
// hands out nil metrics, so disabling telemetry for a whole subsystem is
// just passing nil. No build tags, no global switches, no locks on the hot
// path: enabled counters are single atomic adds, and histogram observation
// is one binary-search plus two atomic adds.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value. A nil Gauge ignores all
// operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is ≥ the value, with an implicit +Inf overflow
// bucket. Bounds are fixed at construction so observation never allocates.
// A nil Histogram ignores all operations.
type Histogram struct {
	bounds []float64      // sorted upper bounds; len ≥ 1
	counts []atomic.Int64 // len(bounds)+1, last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// TimeBuckets is the default latency bucket ladder, in seconds: 1µs to ~8s
// doubling, a useful range for both loopback frames and formation timeouts.
func TimeBuckets() []float64 {
	out := make([]float64, 24)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = TimeBuckets()
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Buckets appends the per-bucket observation counts to dst, the +Inf
// overflow bucket last, and returns it: a read-only snapshot, and the
// difference of two snapshots is the distribution of the observations made
// between them (BucketQuantile). Nil on a nil receiver.
func (h *Histogram) Buckets(dst []int64) []int64 {
	if h == nil {
		return nil
	}
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// BucketQuantile estimates the q-quantile (0 < q ≤ 1) of a distribution given
// as per-bucket counts over h's bounds — a Buckets snapshot or the difference
// of two — interpolating linearly inside the bucket it falls in (the first
// bucket starts at 0; the overflow bucket reads as the largest bound). It
// returns 0 for an empty distribution or a nil receiver.
func (h *Histogram) BucketQuantile(q float64, counts []int64) float64 {
	if h == nil {
		return 0
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var below int64
	for i, n := range counts {
		if n == 0 || float64(below+n) < rank {
			below += n
			continue
		}
		if i == len(h.bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-float64(below))/float64(n)
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry names and owns metrics. Lookup methods create on first use and
// are safe for concurrent callers; a nil *Registry hands out nil metrics, so
// the whole instrumentation tree collapses to pointer checks when telemetry
// is disabled.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil bounds selects TimeBuckets); nil on a nil
// registry. Bounds are fixed by the first caller.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Label renders a metric name with label pairs in Prometheus form:
// Label("x", "rank", "3") → `x{rank="3"}`. Pairs must come key, value.
func Label(name string, pairs ...string) string {
	if len(pairs) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot returns a stable-keyed copy of every metric's current value,
// suitable for expvar publication and JSON encoding. Histograms export
// count, sum, and per-bound cumulative counts.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		buckets := map[string]int64{}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			buckets[fmt.Sprintf("%g", b)] = cum
		}
		cum += h.counts[len(h.bounds)].Load()
		buckets["+Inf"] = cum
		out[name] = map[string]any{
			"count":   h.Count(),
			"sum":     h.Sum(),
			"buckets": buckets,
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series. Output is sorted by name so the
// endpoint is diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type hist struct {
		name string
		h    *Histogram
	}
	counters := make([]string, 0, len(r.counters))
	for name := range r.counters {
		counters = append(counters, name)
	}
	gauges := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gauges = append(gauges, name)
	}
	hists := make([]hist, 0, len(r.histograms))
	for name, h := range r.histograms {
		hists = append(hists, hist{name, h})
	}
	cval := map[string]int64{}
	for name, c := range r.counters {
		cval[name] = c.Value()
	}
	gval := map[string]float64{}
	for name, g := range r.gauges {
		gval[name] = g.Value()
	}
	r.mu.Unlock()

	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	typed := map[string]bool{}
	writeType := func(name, kind string) {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, name := range counters {
		writeType(name, "counter")
		fmt.Fprintf(w, "%s %d\n", name, cval[name])
	}
	for _, name := range gauges {
		writeType(name, "gauge")
		fmt.Fprintf(w, "%s %g\n", name, gval[name])
	}
	for _, hn := range hists {
		writeType(hn.name, "histogram")
		cum := int64(0)
		for i, b := range hn.h.bounds {
			cum += hn.h.counts[i].Load()
			fmt.Fprintf(w, "%s %d\n", bucketName(hn.name, fmt.Sprintf("%g", b)), cum)
		}
		cum += hn.h.counts[len(hn.h.bounds)].Load()
		fmt.Fprintf(w, "%s %d\n", bucketName(hn.name, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum %g\n", hn.name, hn.h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", hn.name, hn.h.Count())
	}
	return nil
}

// bucketName renders name_bucket{le="bound"}, merging into an existing label
// set when the histogram name already carries one.
func bucketName(name, le string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return fmt.Sprintf("%s_bucket{le=%q,%s", name[:i], le, name[i+1:])
	}
	return fmt.Sprintf("%s_bucket{le=%q}", name, le)
}
