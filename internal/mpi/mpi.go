// Package mpi implements the message-passing substrate the barriers execute
// on: a deterministic, virtual-time runtime with MPI-like point-to-point
// semantics, simulating a heterogeneous cluster described by a fabric cost
// model.
//
// Each rank of a job runs as a coroutine (iter.Pull) of the goroutine that
// called Run: the discrete-event scheduler resumes one rank at a time with a
// direct coroutine switch and gets control back when the rank blocks, so no
// rank switch goes through the Go scheduler. Virtual time advances only
// through message costs drawn from the fabric and through explicit Compute
// calls. Events run in (time, scheduling order) and the fabric's noise is
// drawn in that order, so every run is reproducible.
//
// The timing model mirrors the paper's topological model (§IV):
//
//   - A send batch is the set of sends a rank issues without blocking in
//     between. Message k of a batch (0-based) arrives at
//     T + base_k + Σ_{l≤k} L(src, dst_l), where base_k is O(src, dst_k) — or
//     Oii when the receiver has already posted a matching receive, which
//     reproduces the paper's Eq. 2 ready-receiver case — and L is the
//     fabric's batch-marginal cost. The batch as a whole therefore costs
//     max-overhead-plus-sum-of-latencies, the paper's Eq. 1.
//   - Issend is synchronized (as used by the paper's general barrier
//     executor): the sender's request completes only when the receiver has
//     matched the message.
//
// An optional congestion mode serialises cross-node messages through the
// source node's NIC, an effect the paper's static model deliberately ignores
// (§VIII); it exists here for robustness ablations.
package mpi

import (
	"fmt"
	"iter"

	"topobarrier/internal/des"
	"topobarrier/internal/fabric"
)

// Wildcards for Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// abortSignal is panicked into a parked rank to unwind its stack when a run
// is torn down early.
type abortSignal struct{}

// TraceEvent records one delivered message; see WithTracer.
type TraceEvent struct {
	Src, Dst, Tag, Bytes int
	Sent                 float64 // virtual time the send was issued
	Arrived              float64 // virtual time the message arrived
	// Posted is when the receive that matched the message was posted, and
	// Matched when the two met: Arrived for a receiver that was waiting,
	// Posted for a message that sat unexpected. A synchronized sender's
	// request completes at Matched. Both are +Inf for a message the run ended
	// without receiving.
	Posted, Matched float64
}

// Option configures a World.
type Option func(*World)

// WithCongestion enables NIC serialisation of cross-node messages using the
// fabric's occupancy model.
func WithCongestion() Option { return func(w *World) { w.congestion = true } }

// WithMaxEvents bounds the number of events a single Run may execute; runs
// exceeding it fail with an error. 0 means unbounded.
func WithMaxEvents(n int) Option { return func(w *World) { w.maxEvents = n } }

// WithTracer installs a callback invoked, as each Run ends, once for every
// message the run delivered, in delivery order.
func WithTracer(fn func(TraceEvent)) Option { return func(w *World) { w.tracer = fn } }

// World is a simulated P-rank job. A World may execute any number of
// sequential Runs; fabric noise state carries across runs (so repetitions see
// fresh noise), everything else is per-run.
type World struct {
	fab        *fabric.Fabric
	n          int
	congestion bool
	maxEvents  int
	tracer     func(TraceEvent)
}

// NewWorld wraps a placed fabric as a runnable job.
func NewWorld(fab *fabric.Fabric, opts ...Option) *World {
	w := &World{fab: fab, n: fab.P()}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Fabric returns the underlying cost oracle.
func (w *World) Fabric() *fabric.Fabric { return w.fab }

// Run executes body once on every rank concurrently (in virtual time) and
// returns the virtual time at which the last rank finished. It returns an
// error if any rank panicked, if ranks deadlocked, or if the event bound was
// exceeded.
func (w *World) Run(body func(*Comm)) (elapsed float64, err error) {
	r := &run{
		world:   w,
		procs:   make([]proc, w.n),
		nicFree: make([]float64, w.fab.Spec().Nodes),
	}
	for i := range r.procs {
		p := &r.procs[i]
		p.rank = i
		p.comm = Comm{r: r, p: p}
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(abortSignal); !ok {
						p.failure = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, rec)
					}
				}
			}()
			body(&p.comm)
		})
		r.q.Schedule(0, event{kind: evWake, p: p})
	}
	// Tear down every rank still parked (or never started) so nothing leaks;
	// stop is a no-op on a rank that ran to completion.
	defer func() {
		for i := range r.procs {
			r.procs[i].stop()
		}
		for _, e := range r.trace {
			w.tracer(e)
		}
	}()

	events := 0
	for ev, ok := r.q.Next(); ok; ev, ok = r.q.Next() {
		switch ev.kind {
		case evWake:
			r.wake(ev.p)
		case evDeliver:
			r.deliver(ev.p, ev.m, ev.sentAt)
		case evComplete:
			r.completeAndWake(ev.m.sreq, r.q.Now(), -1, -1)
		}
		events++
		if w.maxEvents > 0 && events > w.maxEvents {
			return r.q.Now(), fmt.Errorf("mpi: run exceeded %d events", w.maxEvents)
		}
	}

	// Rank panics take precedence over the secondary deadlocks they cause.
	var blocked []int
	for i := range r.procs {
		if p := &r.procs[i]; p.failure != nil {
			return r.q.Now(), p.failure
		} else if !p.done {
			blocked = append(blocked, p.rank)
		}
	}
	if len(blocked) > 0 {
		return r.q.Now(), fmt.Errorf("mpi: deadlock, ranks %v blocked at t=%g", blocked, r.q.Now())
	}
	return r.q.Now(), nil
}

// run holds the per-Run state.
type run struct {
	world   *World
	q       des.Queue[event]
	procs   []proc
	nicFree []float64
	free    []*Request // completed requests no caller ever saw, for reuse
	// trace, kept only when the world has a tracer, holds every delivery so
	// far in delivery order; a delivery's match times are filled in when its
	// receive turns up, so the tracer sees the events when the run ends.
	trace []TraceEvent
}

// event is what the run's queue carries: the payload of one scheduler action,
// by value.
type event struct {
	kind   evKind
	p      *proc   // evWake: the rank to resume; evDeliver: the destination
	m      inMsg   // evDeliver: the message; evComplete: m.sreq is the request
	sentAt float64 // evDeliver: when the send was issued
}

type evKind uint8

const (
	evWake     evKind = iota // start a rank, or end its Compute
	evDeliver                // a message arrives
	evComplete               // a synchronized sender learns of a late match
)

type proc struct {
	rank    int
	comm    Comm
	next    func() (struct{}, bool) // resume the rank until it parks or returns
	yield   func(struct{}) bool     // park: hand control back to the scheduler
	stop    func()                  // unwind a parked rank
	done    bool
	failure error

	batchLat float64 // summed batch-marginal cost of the sends since the proc last blocked

	pending int // incomplete requests of the Wait the proc is parked in

	stage []*Request // the requests of the Stage the rank is in

	posted     []*Request // posted, unmatched receives (post order)
	unexpected []inMsg    // arrived, unmatched messages (arrival order)
	// unexpectedEv[i] is unexpected[i]'s index in the run's trace; empty
	// without a tracer.
	unexpectedEv []int
}

type inMsg struct {
	src, tag, bytes int
	sreq            *Request // the sender's synchronized request
}

// wake resumes a parked proc and returns when it parks again or finishes.
// It must only be called from scheduler context (inside an event).
func (r *run) wake(p *proc) {
	if _, parked := p.next(); !parked {
		p.done = true
	}
}

// park hands control from the calling proc back to the scheduler until the
// scheduler wakes it. Called from proc context only.
func (p *proc) park() {
	p.batchLat = 0
	if !p.yield(struct{}{}) {
		panic(abortSignal{}) // the run is over: unwind to the coroutine's root
	}
}
