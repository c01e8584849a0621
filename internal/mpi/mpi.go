// Package mpi implements the message-passing substrate the barriers execute
// on: a deterministic, virtual-time runtime with MPI-like point-to-point
// semantics, simulating a heterogeneous cluster described by a fabric cost
// model.
//
// A job is one program per rank (Program): a list of steps, each some local
// work followed by receives and synchronized sends under one tag that
// complete together — the paper's §VI executor, one MPI_Issend per signal,
// written down as data. World.Run checks every program before the first
// event, then runs the discrete-event loop on the caller's goroutine. A
// rank's cursor is its place in its program, and the event that completes a
// step (a delivery, a sender learning of its match, the end of local work)
// posts the rank's next step itself, so a run resumes nothing and starts no
// goroutine. The event queue and the ranks' match lists stay on the World and
// are reset between Runs. Virtual time advances only through message costs
// drawn from the fabric and through local work. Events run in (time,
// scheduling order) and the fabric's noise is drawn in that order, so every
// run is reproducible.
//
// The timing model mirrors the paper's topological model (§IV):
//
//   - A send batch is the sends of one step. Message k of a batch (0-based)
//     arrives at T + base_k + Σ_{l≤k} L(src, dst_l), where base_k is
//     O(src, dst_k) — or Oii when the receiver has already posted a matching
//     receive, which reproduces the paper's Eq. 2 ready-receiver case — and L
//     is the fabric's batch-marginal cost. The batch as a whole therefore
//     costs max-overhead-plus-sum-of-latencies, the paper's Eq. 1.
//   - Sends are synchronized (MPI_Issend, as the paper's general barrier
//     executor issues them): a send completes only when the receiver has
//     matched the message.
//
// An optional congestion mode serialises cross-node messages through the
// source node's NIC, an effect the paper's static model deliberately ignores
// (§VIII); it exists here for robustness ablations.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"topobarrier/internal/des"
	"topobarrier/internal/fabric"
)

// TraceEvent records one delivered message; see WithTracer.
type TraceEvent struct {
	Src, Dst, Tag, Bytes int
	Sent                 float64 // virtual time the send was issued
	Arrived              float64 // virtual time the message arrived
	// Posted is when the receive that matched the message was posted, and
	// Matched when the two met: Arrived for a receiver that was waiting,
	// Posted for a message that sat unexpected. The sender's send completes
	// at Matched. Both are +Inf for a message the run ended without
	// receiving.
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

// Step is one step of a rank program. The rank first does the step's local
// work, if any: Compute seconds (the paper's §VI delay injection, or an
// application's computation), or, with Noop set, one no-op initiation, whose
// cost is a draw of the fabric's Oii (§IV.A) taken when the rank reaches the
// step. Then it posts a receive from every rank of Recvs and a synchronized
// send of Bytes to every rank of Sends, in list order (a peer listed twice
// is matched in that order), all under the pass's tag base plus Tag, and the
// step completes when all of them have. A compiled barrier plan's per-rank
// entries are steps (run.Plan.RankOps): Tag the stage index, Bytes 0, no
// local work. netmpi's cursor keeps this contract too (DESIGN §3.5).
type Step struct {
	Tag          int
	Recvs, Sends []int // peers
	Bytes        int   // each send's payload
	Compute      float64
	Noop         bool
}

// Program is one rank's part of a Run: Reps passes over Steps, back to back
// (one pass when Reps is 0), pass i under the tag base Bases[i%len(Bases)]
// (0 when Bases is empty). A barrier repeated on alternating tag windows is
// thus one program however often it runs. Step k+1 starts in the event that
// completed step k, and the first pass's first step at virtual time 0.
// Steps is only read, so one slice may serve many ranks and Worlds at once.
//
// Run reports into the program: Done, when non-nil, receives the virtual
// time each step of pass Mark completed and must be at least as long as
// Steps; End, when the program completed, the time its last step did (0 for
// a program without steps).
type Program struct {
	Steps []Step
	Reps  int
	Bases []int
	Mark  int
	Done  []float64
	End   float64
}

// base is the tag base of pass i.
func (pg *Program) base(i int) int {
	if len(pg.Bases) == 0 {
		return 0
	}
	return pg.Bases[i%len(pg.Bases)]
}

// World is a simulated P-rank job. A World may execute any number of
// sequential Runs; fabric noise state carries across runs (so repetitions see
// fresh noise), and every other piece of run state is reset to empty before
// each Run, keeping only the capacity it grew. Like its fabric, a World
// belongs to one goroutine at a time.
type World struct {
	fab        *fabric.Fabric
	n          int
	congestion bool
	maxEvents  int
	tracer     func(TraceEvent)
	r          *run // the state of the current or last Run; nil before the first
	events     int  // events executed over every Run so far
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

// Run executes progs[r] on rank r, every rank starting at virtual time 0, and
// returns the virtual time of the run's last event. It refuses, before the
// first event, programs that could only fail mid-run, naming the rank and
// the step (a peer out of range, a rank addressing itself, a negative size
// or duration, a short Done); it fails when the event bound is exceeded, and
// when ranks deadlock, naming what each blocked rank still waits for.
func (w *World) Run(progs []Program) (elapsed float64, err error) {
	if err := w.check(progs); err != nil {
		return 0, err
	}
	r := w.newRun(progs)
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
			r.complete(ev.p)
		}
		events++
		if w.maxEvents > 0 && events > w.maxEvents {
			return r.q.Now(), fmt.Errorf("mpi: run exceeded %d events", w.maxEvents)
		}
	}
	return r.q.Now(), r.deadlock()
}

// check refuses programs a Run could only fail on.
func (w *World) check(progs []Program) error {
	if len(progs) != w.n {
		return fmt.Errorf("mpi: %d programs for %d ranks", len(progs), w.n)
	}
	for rank := range progs {
		pg := &progs[rank]
		if pg.Done != nil && len(pg.Done) < len(pg.Steps) {
			return fmt.Errorf("mpi: rank %d: %d completion times for %d steps", rank, len(pg.Done), len(pg.Steps))
		}
		if pg.Reps < 0 {
			return fmt.Errorf("mpi: rank %d: %d passes", rank, pg.Reps)
		}
		for k := range pg.Steps {
			if err := CheckStep(rank, w.n, &pg.Steps[k]); err != nil {
				return fmt.Errorf("mpi: rank %d step %d: %w", rank, k, err)
			}
		}
	}
	return nil
}

// CheckStep refuses a step rank of a size-rank job could only fail on: the
// one per-step check of World.Run and of the live venue (netmpi).
func CheckStep(rank, size int, st *Step) error {
	for _, peers := range [2][]int{st.Recvs, st.Sends} {
		for _, q := range peers {
			if q < 0 || q >= size {
				return fmt.Errorf("peer %d out of range (size %d)", q, size)
			}
			if q == rank {
				return errors.New("addresses itself")
			}
		}
	}
	switch {
	case st.Bytes < 0:
		return fmt.Errorf("negative message size %d", st.Bytes)
	case !(st.Compute >= 0) || math.IsInf(st.Compute, 1):
		return fmt.Errorf("local work of %g s", st.Compute)
	case st.Noop && st.Compute != 0:
		return errors.New("both Compute and Noop")
	}
	return nil
}

// newRun readies the World's run state for progs: built on the first Run,
// emptied on later ones. Every rank is scheduled to start at time 0.
func (w *World) newRun(progs []Program) *run {
	r := w.r
	if r == nil {
		r = &run{world: w, procs: make([]proc, w.n), nicFree: make([]float64, w.fab.Spec().Nodes)}
		for i := range r.procs {
			r.procs[i].rank = i
		}
		w.r = r
	} else {
		r.q.Reset()
		clear(r.nicFree)
		r.trace = r.trace[:0]
		for i := range r.procs {
			r.procs[i].reset()
		}
	}
	for i := range r.procs {
		p := &r.procs[i]
		p.prog = &progs[i]
		if len(p.prog.Steps) > 0 {
			p.reps = max(p.prog.Reps, 1)
		}
		p.base = p.prog.base(0)
		r.q.Schedule(0, event{kind: evWake, p: p})
	}
	return r
}

// finish ends a Run, however it ended: it lets go of the programs and hands
// the trace to the tracer.
func (r *run) finish() {
	for i := range r.procs {
		r.procs[i].prog = nil
	}
	for _, e := range r.trace {
		r.world.tracer(e)
	}
}

// run holds the state of a Run. The World keeps it, and newRun empties it
// for the next.
type run struct {
	world   *World
	q       des.Queue[event]
	procs   []proc
	nicFree []float64
	// trace, kept only when the world has a tracer, holds every delivery so
	// far in delivery order; a delivery's match times are filled in when its
	// receive turns up, so the tracer sees the events when the run ends.
	trace []TraceEvent
}

// event is what the run's queue carries: the payload of one scheduler action,
// by value.
type event struct {
	kind   evKind
	p      *proc   // evWake: the rank; evDeliver: the destination; evComplete: the sender
	m      inMsg   // evDeliver: the message
	sentAt float64 // evDeliver: when the send was issued
}

type evKind uint8

const (
	evWake     evKind = iota // start a rank's program, or end its step's local work
	evDeliver                // a message arrives
	evComplete               // a synchronized sender learns of a late match
)

// proc is one rank of a Run: its cursor and its match lists.
type proc struct {
	rank int
	prog *Program // nil outside a Run

	// The cursor: step at of pass pass (of reps), under tag base base.
	pass, at, reps, base int

	working bool // the current step's local work is under way
	pending int  // the current step's receives and sends not yet complete
	done    bool // the program has ended

	batchLat float64 // summed batch-marginal cost of the current step's sends so far

	posted     []recv  // posted, unmatched receives (post order)
	unexpected []inMsg // arrived, unmatched messages (arrival order)
	// unexpectedEv[i] is unexpected[i]'s index in the run's trace; empty
	// without a tracer.
	unexpectedEv []int
}

// recv is a posted receive.
type recv struct {
	src, tag int
	at       float64 // when it was posted
}

type inMsg struct{ src, tag, bytes int }

// reset empties the proc for the next Run, keeping its slices' capacity.
func (p *proc) reset() {
	*p = proc{rank: p.rank, posted: p.posted[:0], unexpected: p.unexpected[:0], unexpectedEv: p.unexpectedEv[:0]}
}

// wake starts p's program, or ends its current step's local work.
func (r *run) wake(p *proc) {
	if p.working {
		p.working = false
		if !r.post(p) {
			return
		}
		r.stepDone(p)
	}
	r.advance(p)
}

// advance runs p's program from the cursor on: it starts each step, its
// local work first, and ends it at once when nothing it posted is left
// outstanding, until a step must wait or the program has ended.
func (r *run) advance(p *proc) {
	for p.pass < p.reps {
		st := &p.prog.Steps[p.at]
		work := st.Compute
		if st.Noop {
			work = r.world.fab.SelfOverhead(p.rank)
		}
		if work > 0 {
			p.working = true
			r.q.Schedule(r.q.Now()+work, event{kind: evWake, p: p})
			return
		}
		if !r.post(p) {
			return
		}
		r.stepDone(p)
	}
	p.done = true
	p.prog.End = r.q.Now()
}

// post posts the current step's receives, then its sends, and reports
// whether the step has already completed (it can only when it sends
// nothing and every receive found its message waiting).
func (r *run) post(p *proc) bool {
	st := &p.prog.Steps[p.at]
	tag := p.base + st.Tag
	for _, src := range st.Recvs {
		r.recv(p, src, tag)
	}
	for _, dst := range st.Sends {
		r.send(p, dst, tag, st.Bytes)
	}
	return p.pending == 0
}

// stepDone ends p's current step: it records the completion time, ends the
// send batch and moves the cursor on.
func (r *run) stepDone(p *proc) {
	pg := p.prog
	if pg.Done != nil && p.pass == pg.Mark {
		pg.Done[p.at] = r.q.Now()
	}
	p.batchLat = 0
	if p.at++; p.at == len(pg.Steps) {
		p.at = 0
		p.pass++
		p.base = pg.base(p.pass)
	}
}

// complete completes one of p's outstanding receives or sends; the last one
// ends the step and starts the next.
func (r *run) complete(p *proc) {
	if p.pending--; p.pending > 0 {
		return
	}
	r.stepDone(p)
	r.advance(p)
}

// recv posts p's receive of (src, tag), matching the first such message
// that already arrived unexpected.
func (r *run) recv(p *proc, src, tag int) {
	now := r.q.Now()
	for i, m := range p.unexpected {
		if m.src == src && m.tag == tag {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			if r.world.tracer != nil {
				e := &r.trace[p.unexpectedEv[i]]
				e.Posted, e.Matched = now, now
				p.unexpectedEv = append(p.unexpectedEv[:i], p.unexpectedEv[i+1:]...)
			}
			// The synchronized sender learns of the match now, in an event of
			// its own.
			r.q.Schedule(now, event{kind: evComplete, p: &r.procs[src]})
			return
		}
	}
	p.pending++
	p.posted = append(p.posted, recv{src: src, tag: tag, at: now})
}

// send issues p's synchronized send of bytes to dst under tag.
func (r *run) send(p *proc, dst, tag, bytes int) {
	fab := r.world.fab
	now := r.q.Now()

	// Eq. 2: when the receiver is already waiting, the per-message overhead
	// is the software initiation cost Oii rather than the full targeting
	// overhead Oij.
	var base float64
	if r.hasPostedMatch(dst, p.rank, tag) {
		base = fab.SelfOverhead(p.rank)
	} else {
		base = fab.SendOverhead(p.rank, dst, bytes)
	}
	p.batchLat += fab.BatchMarginal(p.rank, dst)
	arrival := now + base + p.batchLat

	// Optional congestion: cross-node messages serialise through the source
	// node's NIC.
	if r.world.congestion {
		if occ := fab.NICOccupancy(p.rank, dst, bytes); occ > 0 {
			node := fab.NodeOf(p.rank)
			depart := max(now, r.nicFree[node])
			r.nicFree[node] = depart + occ
			arrival = max(arrival, depart+occ+base)
		}
	}

	p.pending++
	r.q.Schedule(arrival, event{kind: evDeliver, p: &r.procs[dst], m: inMsg{src: p.rank, tag: tag, bytes: bytes}, sentAt: now})
}

// hasPostedMatch reports whether dst currently has a receive of (src, tag)
// posted.
func (r *run) hasPostedMatch(dst, src, tag int) bool {
	for _, q := range r.procs[dst].posted {
		if q.src == src && q.tag == tag {
			return true
		}
	}
	return false
}

// deliver runs at a message's arrival time: match it against posted
// receives or queue it as unexpected.
func (r *run) deliver(dp *proc, m inMsg, sentAt float64) {
	now := r.q.Now()
	traced := r.world.tracer != nil
	if traced {
		never := math.Inf(1)
		r.trace = append(r.trace, TraceEvent{Src: m.src, Dst: dp.rank, Tag: m.tag, Bytes: m.bytes,
			Sent: sentAt, Arrived: now, Posted: never, Matched: never})
	}
	for i, q := range dp.posted {
		if q.src == m.src && q.tag == m.tag {
			dp.posted = append(dp.posted[:i], dp.posted[i+1:]...)
			if traced {
				e := &r.trace[len(r.trace)-1]
				e.Posted, e.Matched = q.at, now
			}
			r.complete(dp)
			r.complete(&r.procs[m.src])
			return
		}
	}
	dp.unexpected = append(dp.unexpected, m)
	if traced {
		dp.unexpectedEv = append(dp.unexpectedEv, len(r.trace)-1)
	}
}

// maxNamed caps how many blocked ranks a deadlock error describes.
const maxNamed = 4

// deadlock returns the error of a run whose queue ran dry with ranks still
// inside their programs, or nil when every program ended. Nothing is in
// flight then, so what a blocked rank waits for is exact: its posted
// receives, and its sends that sit unexpected at their receivers.
func (r *run) deadlock() error {
	var blocked []int
	for i := range r.procs {
		if !r.procs[i].done {
			blocked = append(blocked, i)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: deadlock, ranks %v blocked at t=%g", blocked, r.q.Now())
	for i, rank := range blocked {
		if i == maxNamed {
			b.WriteString("; …")
			break
		}
		p := &r.procs[rank]
		fmt.Fprintf(&b, "; rank %d step %d (tag %d)", rank, p.at, p.base+p.prog.Steps[p.at].Tag)
		if p.reps > 1 {
			fmt.Fprintf(&b, " of pass %d", p.pass)
		}
		var from, to []int
		for _, q := range p.posted {
			from = append(from, q.src)
		}
		for j := range r.procs {
			for _, m := range r.procs[j].unexpected {
				if m.src == rank {
					to = append(to, j)
				}
			}
		}
		if len(from) > 0 {
			fmt.Fprintf(&b, " waits for sends from %v", from)
		}
		if len(from) > 0 && len(to) > 0 {
			b.WriteString(" and")
		}
		if len(to) > 0 {
			fmt.Fprintf(&b, " has sends to %v unreceived", to)
		}
	}
	return errors.New(b.String())
}
