package mpi

import (
	"fmt"
	"math"
)

// Comm is a rank's handle to the job, valid only inside the body passed to
// World.Run and only on that rank's coroutine.
type Comm struct {
	r *run
	p *proc
}

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.p.rank }

// Size returns the number of ranks in the job.
func (c *Comm) Size() int { return len(c.r.procs) }

// Wtime returns the current virtual time in seconds.
func (c *Comm) Wtime() float64 { return c.r.q.Now() }

// reqKind distinguishes send and receive requests.
type reqKind int

const (
	sendReq reqKind = iota
	recvReq
)

// Request is a pending nonblocking operation.
type Request struct {
	kind  reqKind
	owner int
	peer  int // destination, or source (possibly AnySource)
	tag   int
	bytes int

	done        bool
	inWait      bool // counted in the owner's pending Wait
	completedAt float64
	postedAt    float64 // receives: when Irecv posted it (set only for a tracer)

	// Matched source and tag, filled for completed receives.
	Src, Tag int
}

func (c *Comm) checkPeer(peer int, wild bool) {
	if wild && peer == AnySource {
		return
	}
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d addressed invalid peer %d (size %d)", c.p.rank, peer, c.Size()))
	}
}

// checkSend panics unless the caller may send bytes to dst.
func (c *Comm) checkSend(dst, bytes int) {
	c.checkPeer(dst, false)
	if dst == c.p.rank {
		panic(fmt.Sprintf("mpi: rank %d sending to itself", dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative message size %d", bytes))
	}
}

// Issend posts a synchronized nonblocking send of bytes payload to dst: the
// returned request completes only once the receiver has matched the message.
// This is the operation the paper's barrier executor issues for every signal.
func (c *Comm) Issend(dst, tag, bytes int) *Request {
	c.checkSend(dst, bytes)
	r, p := c.r, c.p
	fab := r.world.fab
	now := r.q.Now()

	req := r.newRequest(Request{kind: sendReq, owner: p.rank, peer: dst, tag: tag, bytes: bytes})

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

	m := inMsg{src: p.rank, tag: tag, bytes: bytes, sreq: req}
	r.q.Schedule(arrival, event{kind: evDeliver, p: &r.procs[dst], m: m, sentAt: now})
	return req
}

// newRequest returns a request initialised to v, reusing the storage of a
// recycled one when there is one.
func (r *run) newRequest(v Request) *Request {
	var q *Request
	if n := len(r.free); n > 0 {
		q = r.free[n-1]
		r.free = r.free[:n-1]
		if !q.done || q.inWait {
			panic("mpi: live request on the free list")
		}
	} else {
		q = new(Request)
	}
	*q = v
	return q
}

// recycle takes back completed requests no caller ever saw (a blocking
// call's, a Stage's) once their wait has returned: once complete, nothing in
// the run refers to them any more. That is the one ownership rule — a request
// returned to the caller (Irecv, Issend) is the caller's for good.
func (r *run) recycle(qs ...*Request) { r.free = append(r.free, qs...) }

// Step is one step of a rank program (Comm.Steps): what one Stage call does,
// with a payload size for its sends.
type Step struct {
	Tag          int   // added to the program's base tag
	Recvs, Sends []int // peers, posted in list order: every receive, then every send
	Bytes        int   // each send's payload
}

// Stage runs one stage of a barrier plan (§VI): it posts a receive from every
// rank of recvs and a zero-byte Issend to every rank of sends, all under tag,
// in that order, and waits for all of them. It is a one-step program
// (Steps), so its requests never reach the caller and a steady stream of
// stages allocates nothing. It never fails; the error is run.Stager's, whose
// live implementation can.
func (c *Comm) Stage(tag int, recvs, sends []int) error {
	p := c.p
	p.one[0] = Step{Recvs: recvs, Sends: sends}
	c.Steps(tag, p.one[:], nil)
	p.one[0] = Step{}
	return nil
}

// Steps runs a program of steps and returns when its last step has
// completed. Step k posts a receive under base+steps[k].Tag from every rank
// of its Recvs, then an Issend of its Bytes under the same tag to every rank
// of its Sends, and waits for all of them; step k+1 starts when step k has
// completed, and each step boundary ends the send batch, as Wait does. A
// program observes exactly what the same calls to Irecv, Issend and Wait
// would, but the scheduler posts each next step itself, in the event that
// completed the step before, so the rank is resumed once per program rather
// than once per step. When done is non-nil, done[k] receives the virtual time
// step k completed — what Wtime would read once its Wait returned — and done
// must be at least as long as steps. Every peer is checked before the first
// step is posted. The program's requests never reach the caller and are
// recycled as each step completes; steps is only read, so one program may
// serve many ranks and Worlds at once.
func (c *Comm) Steps(base int, steps []Step, done []float64) {
	if done != nil && len(done) < len(steps) {
		panic(fmt.Sprintf("mpi: %d completion times for %d steps", len(done), len(steps)))
	}
	for k := range steps {
		st := &steps[k]
		for _, src := range st.Recvs {
			c.checkPeer(src, true)
		}
		for _, dst := range st.Sends {
			c.checkSend(dst, st.Bytes)
		}
	}
	p := c.p
	p.prog, p.progBase, p.progDone, p.progAt = steps, base, done, 0
	if c.r.advance(p) {
		return
	}
	for p.prog != nil {
		p.park()
	}
}

// advance posts the steps of p's program from the current one on, each as
// soon as the one before it has completed, and reports whether the program
// has ended; it stops at a step that must wait. It runs in the rank's own
// context when the program starts and in scheduler context (completeAndWake)
// afterwards.
func (r *run) advance(p *proc) bool {
	c := &p.comm
	for p.progAt < len(p.prog) {
		st := &p.prog[p.progAt]
		tag := p.progBase + st.Tag
		for _, src := range st.Recvs {
			p.stage = append(p.stage, c.Irecv(src, tag))
		}
		for _, dst := range st.Sends {
			p.stage = append(p.stage, c.Issend(dst, tag, st.Bytes))
		}
		for _, q := range p.stage {
			if !q.done {
				q.inWait = true
				p.pending++
			}
		}
		if p.pending > 0 {
			return false
		}
		r.stepDone(p)
	}
	p.prog, p.progDone = nil, nil
	return true
}

// stepDone ends p's current program step: it records the completion time,
// ends the send batch and recycles the step's requests.
func (r *run) stepDone(p *proc) {
	if p.progDone != nil {
		p.progDone[p.progAt] = r.q.Now()
	}
	p.progAt++
	p.batchLat = 0
	r.recycle(p.stage...)
	p.stage = p.stage[:0]
}

// Irecv posts a nonblocking receive matching the given source and tag
// (AnySource / AnyTag act as wildcards). On completion the request's Src and
// Tag fields hold the matched envelope.
func (c *Comm) Irecv(src, tag int) *Request {
	c.checkPeer(src, true)
	r, p := c.r, c.p
	req := r.newRequest(Request{kind: recvReq, owner: p.rank, peer: src, tag: tag})
	if r.world.tracer != nil {
		req.postedAt = r.q.Now()
	}

	// Check messages that already arrived unmatched.
	for i, m := range p.unexpected {
		if envelopeMatches(req, m.src, m.tag) {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			now := r.q.Now()
			if r.world.tracer != nil {
				e := &r.trace[p.unexpectedEv[i]]
				e.Posted, e.Matched = now, now
				p.unexpectedEv = append(p.unexpectedEv[:i], p.unexpectedEv[i+1:]...)
			}
			req.complete(now, m.src, m.tag)
			// The synchronized sender learns of the match now; complete (and
			// possibly wake) it from scheduler context.
			r.q.Schedule(now, event{kind: evComplete, m: inMsg{sreq: m.sreq}})
			return req
		}
	}
	p.posted = append(p.posted, req)
	return req
}

// Wait blocks until every given request has completed. Nil requests are
// ignored.
func (c *Comm) Wait(reqs ...*Request) {
	p := c.p
	for _, q := range reqs {
		if q != nil && q.owner != p.rank {
			panic(fmt.Sprintf("mpi: rank %d waiting on rank %d's request", p.rank, q.owner))
		}
	}
	// Count the incomplete requests once; completeAndWake counts them down
	// and wakes the rank when the last one lands.
	for _, q := range reqs {
		if q != nil && !q.done && !q.inWait {
			q.inWait = true
			p.pending++
		}
	}
	for p.pending > 0 {
		p.park()
	}
	// A completed wait ends the current simultaneous send batch even when no
	// blocking was needed.
	p.batchLat = 0
}

// Send is a blocking synchronized send (Issend + Wait).
func (c *Comm) Send(dst, tag, bytes int) {
	q := c.Issend(dst, tag, bytes)
	c.Wait(q)
	c.r.recycle(q)
}

// Status describes a completed receive.
type Status struct {
	Src, Tag int
}

// Recv is a blocking receive (Irecv + Wait).
func (c *Comm) Recv(src, tag int) Status {
	q := c.Irecv(src, tag)
	c.Wait(q)
	st := Status{Src: q.Src, Tag: q.Tag}
	c.r.recycle(q)
	return st
}

// Compute advances the calling rank's local time by seconds without
// communicating; it models local work and the delay injection of the paper's
// synchronization validation (§VI).
func (c *Comm) Compute(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("mpi: Compute(%g)", seconds))
	}
	if seconds == 0 {
		return
	}
	// Only this event resumes the rank: outside Wait nothing is pending.
	c.r.q.Schedule(c.r.q.Now()+seconds, event{kind: evWake, p: c.p})
	c.p.park()
}

// NoopInitiate models initiating a communication request that ultimately
// causes no transmission; its cost is the paper's Oii parameter. The probe
// package measures it the way the paper does (§IV.A).
func (c *Comm) NoopInitiate() {
	c.Compute(c.r.world.fab.SelfOverhead(c.p.rank))
}

func envelopeMatches(req *Request, src, tag int) bool {
	return (req.peer == AnySource || req.peer == src) &&
		(req.tag == AnyTag || req.tag == tag)
}

func (q *Request) complete(t float64, src, tag int) {
	q.done = true
	q.completedAt = t
	if q.kind == recvReq {
		q.Src, q.Tag = src, tag
	}
}

// hasPostedMatch reports whether dst currently has a receive posted that a
// message (src, tag) would match.
func (r *run) hasPostedMatch(dst, src, tag int) bool {
	for _, q := range r.procs[dst].posted {
		if envelopeMatches(q, src, tag) {
			return true
		}
	}
	return false
}

// deliver runs at a message's arrival time (scheduler context): match it
// against posted receives or queue it as unexpected.
func (r *run) deliver(dp *proc, m inMsg, sentAt float64) {
	now := r.q.Now()
	traced := r.world.tracer != nil
	if traced {
		never := math.Inf(1)
		r.trace = append(r.trace, TraceEvent{Src: m.src, Dst: dp.rank, Tag: m.tag, Bytes: m.bytes,
			Sent: sentAt, Arrived: now, Posted: never, Matched: never})
	}
	for i, q := range dp.posted {
		if envelopeMatches(q, m.src, m.tag) {
			dp.posted = append(dp.posted[:i], dp.posted[i+1:]...)
			if traced {
				e := &r.trace[len(r.trace)-1]
				e.Posted, e.Matched = q.postedAt, now
			}
			r.completeAndWake(q, now, m.src, m.tag)
			r.completeAndWake(m.sreq, now, -1, -1)
			return
		}
	}
	dp.unexpected = append(dp.unexpected, m)
	if traced {
		dp.unexpectedEv = append(dp.unexpectedEv, len(r.trace)-1)
	}
}

// completeAndWake completes a request. When that was the last request its
// owner waits on, it wakes the owner — or, for a rank running a program,
// ends the step and posts the next ones, and wakes the rank only once the
// program has ended. Scheduler context only.
func (r *run) completeAndWake(q *Request, t float64, src, tag int) {
	if q.done {
		return
	}
	q.complete(t, src, tag)
	if q.inWait {
		q.inWait = false
		p := &r.procs[q.owner]
		if p.pending--; p.pending > 0 {
			return
		}
		if p.prog != nil {
			r.stepDone(p)
			if !r.advance(p) {
				return
			}
		}
		r.wake(p)
	}
}
