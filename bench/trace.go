package main

import (
	"os"
	"sort"
	"strings"
	"time"

	"topobarrier/internal/telemetry"
)

// meshSpanCap bounds the ring that keeps netmpi's per-message spans: a
// traced barrier loop emits tens of spans per barrier, so an unbounded
// tracer would grow by gigabytes. Evictions are reported as
// telemetry.dropped_spans.
const meshSpanCap = 1 << 17

// layers is the tracing state of a traced pass: benchmark-side spans around
// every call into a layer, the tracer and registry handed to the program's
// own hooks (core.Options.Tracer, netmpi.WithTracer, netmpi.WithTelemetry,
// search's Telemetry), and the per-layer samples derived from them. A nil
// *layers is the untraced pass: time just runs f, count does nothing, and
// tracer/mesh/registry return nil, which the program treats as "off".
type layers struct {
	tr   *telemetry.Tracer // benchmark-side and pipeline-phase spans
	ring *telemetry.Tracer // netmpi per-message spans, capped
	reg  *telemetry.Registry
	rec  *recorder
}

func newLayers(rec *recorder) *layers {
	l := &layers{tr: telemetry.NewTracer(), ring: telemetry.NewTracer(), reg: telemetry.NewRegistry(), rec: rec}
	l.ring.SetCap(meshSpanCap)
	return l
}

func (l *layers) tracer() *telemetry.Tracer {
	if l == nil {
		return nil
	}
	return l.tr
}

func (l *layers) mesh() *telemetry.Tracer {
	if l == nil {
		return nil
	}
	return l.ring
}

func (l *layers) registry() *telemetry.Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// unitPerSecond maps a metric name's unit suffix to units per second.
func unitPerSecond(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return 1e9
	case strings.HasSuffix(name, "_us"):
		return 1e6
	case strings.HasSuffix(name, "_ms"):
		return 1e3
	}
	return 1
}

// time runs f inside a span named after the metric and records the span's
// duration as one sample of it, in the unit the metric's suffix names.
func (l *layers) time(metric string, f func()) {
	if l == nil {
		f()
		return
	}
	sp := l.tr.Begin(metric, -1, -1, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	l.rec.add(metric, d.Seconds()*unitPerSecond(metric))
}

// count records one sample of a non-timing layer metric.
func (l *layers) count(metric string, v float64) {
	if l != nil {
		l.rec.add(metric, v)
	}
}

// counter sums the registry counters whose name starts with prefix.
func (l *layers) counter(prefix string) float64 {
	sum := int64(0)
	for name, v := range l.reg.Snapshot() {
		if n, ok := v.(int64); ok && strings.HasPrefix(name, prefix) {
			sum += n
		}
	}
	return float64(sum)
}

// spanMedianUS returns the median duration, in microseconds, of the ring's
// spans whose name starts with prefix, and how many there were.
func spanMedianUS(evs []telemetry.SpanEvent, prefix string) (float64, int) {
	var ds []float64
	for _, e := range evs {
		if strings.HasPrefix(e.Name, prefix) {
			ds = append(ds, e.Dur.Seconds()*1e6)
		}
	}
	return median(ds), len(ds)
}

// writeChromeTrace writes both tracers' spans as one Chrome trace-event file
// (chrome://tracing, ui.perfetto.dev): lane 0 carries the benchmark-side
// layer spans, lanes 0..P-1 the per-rank netmpi spans.
func (l *layers) writeChromeTrace(path string) error {
	evs := l.tr.Events()
	shift := l.ring.Epoch().Sub(l.tr.Epoch())
	for _, e := range l.ring.Events() {
		e.Start += shift
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceEvents(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
