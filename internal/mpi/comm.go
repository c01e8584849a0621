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
	sync  bool // synchronized send (Issend)

	done        bool
	inWait      bool // counted in the owner's pending Wait
	completedAt float64
	postedAt    float64 // receives: when Irecv posted it (set only for a tracer)

	// Matched source and tag, filled for completed receives.
	Src, Tag int
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// CompletedAt returns the virtual completion time; valid once Done.
func (q *Request) CompletedAt() float64 { return q.completedAt }

func (c *Comm) checkPeer(peer int, wild bool) {
	if wild && peer == AnySource {
		return
	}
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d addressed invalid peer %d (size %d)", c.p.rank, peer, c.Size()))
	}
}

// Issend posts a synchronized nonblocking send of bytes payload to dst: the
// returned request completes only once the receiver has matched the message.
// This is the operation the paper's barrier executor issues for every signal.
func (c *Comm) Issend(dst, tag, bytes int) *Request {
	return c.send(dst, tag, bytes, true)
}

// Isend posts an eager nonblocking send; the request completes when the
// message arrives at the destination, matched or not.
func (c *Comm) Isend(dst, tag, bytes int) *Request {
	return c.send(dst, tag, bytes, false)
}

func (c *Comm) send(dst, tag, bytes int, sync bool) *Request {
	c.checkPeer(dst, false)
	if dst == c.p.rank {
		panic(fmt.Sprintf("mpi: rank %d sending to itself", dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative message size %d", bytes))
	}
	r, p := c.r, c.p
	fab := r.world.fab
	now := r.q.Now()

	req := r.newRequest(Request{kind: sendReq, owner: p.rank, peer: dst, tag: tag, bytes: bytes, sync: sync})

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
// call's, a Batch's) once their wait has returned: once complete, nothing in
// the run refers to them any more. That is the one ownership rule — a request
// returned to the caller (Irecv, Issend, Isend) is the caller's for good.
func (r *run) recycle(qs ...*Request) { r.free = append(r.free, qs...) }

// Batch is a rank's reusable stage — "post these operations, wait for all" —
// whose requests never reach the caller: Wait recycles them, so a steady
// stream of stages allocates nothing. A rank has one batch; posts accumulate
// until Wait, and blocking calls may run in between.
type Batch struct{ c *Comm }

// Batch returns the calling rank's batch.
func (c *Comm) Batch() Batch { return Batch{c} }

func (b Batch) post(q *Request) { b.c.p.stage = append(b.c.p.stage, q) }

// Irecv posts a receive as Comm.Irecv does.
func (b Batch) Irecv(src, tag int) { b.post(b.c.Irecv(src, tag)) }

// Issend posts a synchronized send as Comm.Issend does.
func (b Batch) Issend(dst, tag, bytes int) { b.post(b.c.Issend(dst, tag, bytes)) }

// Isend posts an eager send as Comm.Isend does.
func (b Batch) Isend(dst, tag, bytes int) { b.post(b.c.Isend(dst, tag, bytes)) }

// Wait blocks until everything posted since the last Wait has completed, as
// Comm.Wait does, and empties the batch.
func (b Batch) Wait() {
	p := b.c.p
	b.c.Wait(p.stage...)
	b.c.r.recycle(p.stage...)
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
			if m.sreq != nil && !m.sreq.done {
				// The synchronized sender learns of the match now; complete
				// (and possibly wake) it from scheduler context.
				r.q.Schedule(now, event{kind: evComplete, m: inMsg{sreq: m.sreq}})
			}
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
	if !m.sreq.sync {
		// Eager sends complete on arrival even when unmatched.
		r.completeAndWake(m.sreq, now, -1, -1)
		m.sreq = nil
	}
	dp.unexpected = append(dp.unexpected, m)
	if traced {
		dp.unexpectedEv = append(dp.unexpectedEv, len(r.trace)-1)
	}
}

// completeAndWake completes a request and wakes its owner if that was the
// last request the owner is parked waiting on. Scheduler context only.
func (r *run) completeAndWake(q *Request, t float64, src, tag int) {
	if q.done {
		return
	}
	q.complete(t, src, tag)
	if q.inWait {
		q.inWait = false
		p := &r.procs[q.owner]
		if p.pending--; p.pending == 0 {
			r.wake(p)
		}
	}
}

// Test reports whether the request has completed, without blocking. Unlike
// Wait it never parks the caller, so it supports polling-style algorithms;
// note that in virtual time a request can only progress while the caller is
// parked, so a pure busy-poll loop without intervening Compute or Wait calls
// will spin forever.
func (c *Comm) Test(q *Request) bool {
	if q == nil {
		return true
	}
	if q.owner != c.p.rank {
		panic(fmt.Sprintf("mpi: rank %d testing rank %d's request", c.p.rank, q.owner))
	}
	return q.done
}

// Iprobe reports whether a message matching (src, tag) has arrived but not
// yet been received; wildcards apply as in Irecv. It does not consume the
// message.
func (c *Comm) Iprobe(src, tag int) bool {
	c.checkPeer(src, true)
	probe := &Request{kind: recvReq, owner: c.p.rank, peer: src, tag: tag}
	for _, m := range c.p.unexpected {
		if envelopeMatches(probe, m.src, m.tag) {
			return true
		}
	}
	return false
}
