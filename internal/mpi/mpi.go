// Package mpi implements the message-passing substrate the barriers execute
// on: a deterministic, virtual-time runtime with MPI-like point-to-point
// semantics, simulating a heterogeneous cluster described by a fabric cost
// model.
//
// Each rank of a job runs as a coroutine (iter.Pull) of the goroutine that
// drives the Run's event loop — one of its own, so the caller's OS-thread
// lock never reaches the coroutines: the discrete-event scheduler resumes one
// rank at a time with a direct coroutine switch and gets control back when
// the rank blocks, so no rank switch goes through the Go scheduler. A rank
// that hands the scheduler a whole program of stages (Comm.Steps) is not
// resumed between them: the scheduler posts each next step itself, in the
// event that completed the one before, and resumes the rank once when the
// program has ended. The coroutines come from a process-wide pool and go
// back to it when the Run ends, so a rank's stack, once grown, serves the
// Runs after it; the event queue, the ranks' queues and the request free list
// stay on the World and are reset between Runs. Virtual time advances only
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
	"runtime"
	"sync"

	"topobarrier/internal/des"
	"topobarrier/internal/fabric"
)

// Wildcards for Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// abortSignal is panicked into a parked rank to unwind its stack when a run
// is torn down early; the rank's coroutine survives it and idles.
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
// fresh noise), and every other piece of run state is reset to empty before
// each Run, keeping only the capacity it grew.
type World struct {
	fab        *fabric.Fabric
	n          int
	congestion bool
	maxEvents  int
	tracer     func(TraceEvent)
	r          *run // the state of the current or last Run; nil before the first

	// Totals over every Run so far, for the tests that bound the engine's
	// work: events executed and rank coroutine resumes.
	events, resumes int

	done chan struct{} // drive's signal that the Run's loop has ended
	call runCall
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
// exceeded. A body must not call Run on its own World.
//
// The event loop runs on a goroutine of its own, which Run waits for: a
// pooled rank coroutine must be resumed under the OS-thread lock state it was
// created under, and a fresh goroutine holds no lock whatever its caller
// holds. A panic that escapes the loop (a tracer's) is raised again in the
// caller, and a body's runtime.Goexit ends the caller, as it would if the
// loop ran there.
func (w *World) Run(body func(*Comm)) (elapsed float64, err error) {
	if w.r != nil && w.r.body != nil {
		panic("mpi: World.Run called from inside a Run of the same World")
	}
	if w.done == nil {
		w.done = make(chan struct{})
	}
	w.call = runCall{body: body}
	go drive()
	loops <- w
	<-w.done
	c := w.call
	w.call = runCall{}
	switch {
	case c.panicked != nil:
		panic(c.panicked)
	case c.exited:
		runtime.Goexit()
	}
	return c.elapsed, c.err
}

// runCall is one Run's hand-over between the caller and drive.
type runCall struct {
	body     func(*Comm)
	elapsed  float64
	err      error
	panicked any  // a panic that escaped the loop
	exited   bool // the loop's goroutine ended in runtime.Goexit
}

// loops hands each Run's World to a goroutine started for it (drive). Each
// Run starts its goroutine before it sends, so a full buffer only delays a
// sender until a started goroutine takes a World; 64 Runs starting at once
// on separate Worlds hand over without waiting, and neither side allocates.
var loops = make(chan *World, 64)

// drive runs the event loop of one World taken from loops and reports back
// on the World's done channel, however the loop ended.
func drive() {
	w := <-loops
	defer func() { w.done <- struct{}{} }()
	returned := false
	defer func() {
		if !returned {
			if w.call.panicked = recover(); w.call.panicked == nil {
				w.call.exited = true
			}
		}
	}()
	w.call.elapsed, w.call.err = w.loop(w.call.body)
	returned = true
}

// loop is Run's event loop.
func (w *World) loop(body func(*Comm)) (elapsed float64, err error) {
	r := w.newRun(body)
	// Unwind every rank still parked and hand the coroutines back, so
	// nothing leaks and the World can run again.
	defer r.finish()

	events := 0
	defer func() { w.events += events }()
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

// newRun readies the World's run state for body: built on the first Run,
// emptied on later ones. Every rank is scheduled to start at time 0.
func (w *World) newRun(body func(*Comm)) *run {
	r := w.r
	switch {
	case r == nil:
		r = &run{world: w, procs: make([]proc, w.n), nicFree: make([]float64, w.fab.Spec().Nodes)}
		for i := range r.procs {
			p := &r.procs[i]
			p.rank = i
			p.comm = Comm{r: r, p: p}
		}
		w.r = r
	default:
		r.q.Reset()
		clear(r.nicFree)
		r.trace = r.trace[:0]
		for i := range r.procs {
			r.procs[i].reset()
		}
	}
	r.body = body
	for i := range r.procs {
		r.q.Schedule(0, event{kind: evWake, p: &r.procs[i]})
	}
	return r
}

// finish ends a Run, however it ended: it unwinds every rank parked mid-body
// with abortSignal, returns the ranks' coroutines to the pool and hands the
// trace to the tracer.
func (r *run) finish() {
	coros := r.coros[:0]
	for i := range r.procs {
		p := &r.procs[i]
		co := p.co
		switch {
		case co == nil: // never started
			continue
		case co.exited: // its body called runtime.Goexit: the coroutine is gone
			continue
		case !p.done:
			p.abort = true
			r.world.resumes++
			co.next()
		}
		coros = append(coros, co)
	}
	releaseCoros(coros)
	clear(coros)
	r.coros, r.body = coros[:0], nil
	for _, e := range r.trace {
		r.world.tracer(e)
	}
}

// run holds the state of a Run. The World keeps it, and newRun empties it
// for the next.
type run struct {
	world   *World
	body    func(*Comm) // the body of the Run in progress; nil between Runs
	q       des.Queue[event]
	procs   []proc
	nicFree []float64
	free    []*Request  // completed requests no caller ever saw, for reuse
	coros   []*rankCoro // finish's scratch: the coroutines going back to the pool
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
	co      *rankCoro // the coroutine running the rank's body; nil until it starts
	done    bool
	abort   bool // the run is being torn down: unwind at the next park
	failure error

	batchLat float64 // summed batch-marginal cost of the sends since the proc last blocked

	pending int // incomplete requests of the Wait or program step the proc is parked in

	// The program (Comm.Steps) the rank is running, nil outside one: the
	// scheduler posts step progAt once the step before it has completed,
	// records completion times in progDone, and resumes the rank when the
	// last step has completed.
	prog     []Step
	progBase int
	progDone []float64
	progAt   int
	one      [1]Step // Comm.Stage's one-step program

	stage []*Request // the requests of the step in flight

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

// reset empties the proc for the next Run, keeping its slices' capacity.
func (p *proc) reset() {
	clear(p.stage)
	clear(p.posted)
	clear(p.unexpected)
	*p = proc{
		rank: p.rank, comm: p.comm,
		stage: p.stage[:0], posted: p.posted[:0],
		unexpected: p.unexpected[:0], unexpectedEv: p.unexpectedEv[:0],
	}
}

// wake starts or resumes a proc and returns when it parks again or finishes.
// It must only be called from scheduler context (inside an event).
func (r *run) wake(p *proc) {
	if p.co == nil {
		p.co = takeCoro()
		p.co.p, p.co.body = p, r.body
	}
	r.world.resumes++
	if over, _ := p.co.next(); over {
		p.done = true
	}
}

// park hands control from the calling proc back to the scheduler until the
// scheduler wakes it. Called from proc context only.
func (p *proc) park() {
	p.batchLat = 0
	if !p.co.yield(false) || p.abort {
		panic(abortSignal{}) // the run is over: unwind to the coroutine's root
	}
}

// rankCoro is a coroutine that runs rank bodies, one per Run it is taken for.
// Between bodies it idles in yield(true); a rank parks in yield(false).
type rankCoro struct {
	next   func() (over, ok bool) // resume; over reports that the body has ended
	stop   func()
	yield  func(over bool) bool
	p      *proc       // the rank it runs; nil while idle
	body   func(*Comm) // what it runs; nil while idle
	exited bool        // the body called runtime.Goexit, which ended the coroutine
}

func newRankCoro() *rankCoro {
	co := &rankCoro{}
	co.next, co.stop = iter.Pull(func(yield func(bool) bool) {
		co.yield = yield
		for {
			co.runBody()
			if !yield(true) {
				return // stopped while idle: discarded from the pool
			}
		}
	})
	return co
}

// runBody runs the rank's body to its end, recording a panic as the rank's
// failure and absorbing abortSignal.
func (co *rankCoro) runBody() {
	p := co.p
	returned := false
	defer func() {
		if returned {
			return
		}
		switch rec := recover(); rec.(type) {
		case nil:
			co.exited = true // runtime.Goexit, which no recover stops
		case abortSignal:
		default:
			p.failure = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, rec)
		}
	}()
	co.body(&p.comm)
	returned = true
}

// maxIdleCoros bounds the pool of idle rank coroutines shared by every World
// in the process: enough for every rank of a 1024-rank job. An idle
// coroutine is a parked goroutine that keeps the stack its last body grew,
// 4 or 8 KB for a barrier or probe body (5 KB on average after a 64-rank
// probe), so a full pool holds at most about 8 MB.
const maxIdleCoros = 1024

var idleCoros struct {
	sync.Mutex
	list []*rankCoro
}

// takeCoro returns an idle coroutine from the pool, or a new one.
func takeCoro() *rankCoro {
	idleCoros.Lock()
	n := len(idleCoros.list)
	if n == 0 {
		idleCoros.Unlock()
		return newRankCoro()
	}
	co := idleCoros.list[n-1]
	idleCoros.list[n-1] = nil
	idleCoros.list = idleCoros.list[:n-1]
	idleCoros.Unlock()
	return co
}

// releaseCoros returns idle coroutines to the pool and stops those the pool
// has no room for.
func releaseCoros(coros []*rankCoro) {
	for _, co := range coros {
		co.p, co.body = nil, nil
	}
	idleCoros.Lock()
	room := min(len(coros), maxIdleCoros-len(idleCoros.list))
	idleCoros.list = append(idleCoros.list, coros[:room]...)
	idleCoros.Unlock()
	for _, co := range coros[room:] {
		co.stop()
	}
}
