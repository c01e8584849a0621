// Package trace records and analyses the message-level execution of barrier
// runs. Where internal/predict computes the critical path of the *model*,
// this package extracts the critical path of an *actual* (simulated)
// execution, supporting the paper's §VI validation at per-message
// granularity: per-link observed latencies, per-rank timelines, and a text
// Gantt rendering of one barrier.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/stats"
)

// Recorder collects delivered-message events from a runtime via WithTracer.
// The hook may be invoked from concurrent rank goroutines; appends are
// serialised internally. Events may be read directly once the traced run has
// completed (no concurrent hooks in flight).
type Recorder struct {
	mu     sync.Mutex
	Events []mpi.TraceEvent
}

// Hook returns the callback to install with mpi.WithTracer. It is safe for
// concurrent use.
func (r *Recorder) Hook() func(mpi.TraceEvent) {
	return func(e mpi.TraceEvent) {
		r.mu.Lock()
		r.Events = append(r.Events, e)
		r.mu.Unlock()
	}
}

// Span returns the time interval covered by the recorded events.
func (r *Recorder) Span() (start, end float64) {
	if len(r.Events) == 0 {
		return 0, 0
	}
	start, end = r.Events[0].Sent, r.Events[0].Arrived
	for _, e := range r.Events[1:] {
		if e.Sent < start {
			start = e.Sent
		}
		if e.Arrived > end {
			end = e.Arrived
		}
	}
	return start, end
}

// CriticalPath reconstructs the longest chain of causally ordered messages
// in the recorded execution: event B depends on event A when B was sent by
// the rank that received A, at or after A's arrival. The returned slice is
// the chain in send order; its elapsed time is the measured critical path.
func (r *Recorder) CriticalPath() []mpi.TraceEvent {
	evs := append([]mpi.TraceEvent(nil), r.Events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Sent < evs[j].Sent })
	// best[i]: longest chain ending at event i, tracked via predecessor.
	endTime := make([]float64, len(evs))
	prev := make([]int, len(evs))
	bestIdx := -1
	for i, e := range evs {
		endTime[i] = e.Arrived
		prev[i] = -1
		// Chain through the most recently completed event received by this
		// sender.
		for j := 0; j < i; j++ {
			if evs[j].Dst == e.Src && evs[j].Arrived <= e.Sent+1e-15 {
				if prev[i] == -1 || endTime[j] > endTime[prev[i]] {
					// Prefer the predecessor whose own chain is longest.
					if prev[i] == -1 || chainStart(evs, prev, j) <= chainStart(evs, prev, prev[i]) {
						prev[i] = j
					}
				}
			}
		}
		if bestIdx == -1 || evs[i].Arrived > evs[bestIdx].Arrived {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return nil
	}
	var chain []mpi.TraceEvent
	for i := bestIdx; i != -1; i = prev[i] {
		chain = append(chain, evs[i])
	}
	// Reverse into send order.
	for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
		chain[a], chain[b] = chain[b], chain[a]
	}
	return chain
}

// chainStart walks predecessors to the chain's first send time.
func chainStart(evs []mpi.TraceEvent, prev []int, i int) float64 {
	for prev[i] != -1 {
		i = prev[i]
	}
	return evs[i].Sent
}

// LinkStats summarises observed latencies grouped by (src, dst) pair.
type LinkStats struct {
	Src, Dst  int
	Count     int
	Mean, Max float64
}

// PerLink aggregates the recorded events by link.
func (r *Recorder) PerLink() []LinkStats {
	type key struct{ s, d int }
	agg := map[key][]float64{}
	for _, e := range r.Events {
		k := key{e.Src, e.Dst}
		agg[k] = append(agg[k], e.Arrived-e.Sent)
	}
	var out []LinkStats
	for k, ls := range agg {
		out = append(out, LinkStats{
			Src: k.s, Dst: k.d, Count: len(ls),
			Mean: stats.Mean(ls), Max: stats.Max(ls),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Gantt renders the recorded events as a per-rank text timeline: each row is
// a rank, each message is drawn from its send column to its arrival column.
// width is the number of character columns.
func (r *Recorder) Gantt(p, width int) string {
	start, end := r.Span()
	if end <= start || width < 10 {
		return "(no events)\n"
	}
	col := func(t float64) int {
		c := int(float64(width-1) * (t - start) / (end - start))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, p)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range r.Events {
		c0, c1 := col(e.Sent), col(e.Arrived)
		if e.Dst >= 0 && e.Dst < p {
			for c := c0 + 1; c < c1; c++ {
				if rows[e.Dst][c] == '.' {
					rows[e.Dst][c] = '-' // message in flight toward this rank
				}
			}
			rows[e.Dst][c1] = '<'
		}
		if e.Src >= 0 && e.Src < p {
			rows[e.Src][c0] = '>'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t ∈ [%.1fµs, %.1fµs], %d messages\n", start*1e6, end*1e6, len(r.Events))
	for i, row := range rows {
		fmt.Fprintf(&b, "%3d %s\n", i, string(row))
	}
	return b.String()
}

// NewTracedWorld wraps a placed fabric into a world with a fresh recorder
// installed, returning both.
func NewTracedWorld(fab *fabric.Fabric, opts ...mpi.Option) (*mpi.World, *Recorder) {
	rec := &Recorder{}
	opts = append(opts, mpi.WithTracer(rec.Hook()))
	return mpi.NewWorld(fab, opts...), rec
}

// RunOnce drives one barrier execution on a traced world and returns its
// elapsed virtual time.
func RunOnce(w *mpi.World, b run.Func) (float64, error) {
	return w.Run(func(c *mpi.Comm) { b(c, 0) })
}
