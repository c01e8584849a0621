package netmpi

// The live executor: a rank's step program advanced by whichever goroutine
// completes its current step.
//
// A cursor is a rank's position in the program it is running — step index,
// receives and sends of the step still outstanding, the folded version word
// and the skipped set — kept as a value, the way a split-phase barrier keeps
// its phase and index between try calls. The rank's goroutine posts step 0
// and then only waits; every later step is posted by the goroutine whose
// event completed the step before it:
//
//   - a put that brings an awaited message — from a co-located sender, or a
//     TCP reader — delivers it into the waiting receive under the receiving
//     rank's lock and, if it was the step's last outstanding event, enters
//     the next step there and then; the goroutine that put it posts the
//     next step's sends once the lock is released: shared-memory puts
//     inline, TCP frames handed to their link writers (only the rank's own
//     goroutine writes a socket inline, and only for its own program);
//   - a link writer's completion is an event of the step that posted it;
//   - a latched link is an event of a resilient program waiting on it.
//
// A step means what it means to mpi.World.Run, Compute aside, which bind
// refuses (a Noop step is an empty step): DESIGN §3.5 has the contract,
// TestExecutorConformance the table.
//
// One lock per rank: the cursor's mu is the rank's lock, and it guards the
// rank's mailboxes too (mailbox.go), so a delivered signal costs one
// acquisition. A goroutine holds at most one rank's lock at a time, and
// never takes an inbox's map lock under it: a step's posts go on a
// worklist, never recursion, and run after the lock is released.
//
// The rank goroutine parks once per program, on one channel. It is woken
// when the program has ended or failed: a failed send, the deadline, or the
// failure latch the program watches (the peer's first failure, or for a
// resilient program the local Close), which the latching goroutine applies
// to the cursor itself — taking whatever mail already arrived first, as a
// parked receive always has.
//
// The deadline is per receive: no receive waits longer than it since the
// rank last made progress. One timer per peer enforces it lazily — armed
// when a rank parks with none armed, re-armed only when it fires — so a
// steady stream of barriers costs no timer operation and, with telemetry
// off, reads no clock. It ticks every half deadline and counts the cursor's
// progress events; two ticks without one (hence no progress for at least
// the deadline, and at most one and a half) while a receive is outstanding
// is the timeout.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// binding is a step program with its mailboxes resolved for one tag base:
// recv[k][i] is the mailbox step k's i-th receive reads, send[k][i] the
// co-located receiver's mailbox step k's i-th send puts into (nil on a TCP
// link), and next[k][i] the step's next receive slot on recv[k][i]'s
// mailbox, or -1; next[k] is empty for a step that reads no mailbox twice.
// inline[k] is step k's last TCP send, which the rank's own goroutine
// writes itself, or -1 if the step sends to that rank more than once, whose
// frames then leave in order through its link's writer. A plan's binding is
// built once per (plan, tag window) and reused.
type binding struct {
	steps    []mpi.Step
	tagBase  int
	recv     [][]*mailbox
	send     [][]*mailbox
	maxRecvs int
	next     [][]int32
	inline   []int32
	zeros    []byte // never written; a step's payload is zeros[:Bytes]
}

// bind resolves steps under tagBase into b, reusing b's slices. It refuses
// what mpi.CheckStep refuses, tags the frame cannot carry, and Compute: a
// step's posts run on whichever goroutine completed the step before it,
// often another rank's sender or a TCP reader, which it would stall. A Noop
// step's local work is nothing: it is an empty step.
func (p *Peer) bind(b *binding, steps []mpi.Step, tagBase int) error {
	for k := range steps {
		st := &steps[k]
		err := cmp.Or(mpi.CheckStep(p.rank, p.size, st), p.checkTag(tagBase+st.Tag))
		if err == nil && st.Compute != 0 {
			err = fmt.Errorf("local work (Compute %g s) is not run on the live venue", st.Compute)
		}
		if err != nil {
			return fmt.Errorf("netmpi: rank %d step %d: %w", p.rank, k, err)
		}
		if cap(b.zeros) < st.Bytes {
			b.zeros = make([]byte, st.Bytes)
		}
	}
	b.steps, b.tagBase, b.maxRecvs = steps, tagBase, 0
	b.recv, b.next, b.send = resize(b.recv, len(steps)), resize(b.next, len(steps)), resize(b.send, len(steps))
	b.inline = slices.Grow(b.inline[:0], len(steps))[:len(steps)]
	for k, st := range steps {
		tag := tagBase + st.Tag
		b.recv[k], b.next[k] = b.recv[k][:0], b.next[k][:0]
		chained := false
		for i, src := range st.Recvs {
			box := p.in[src].box(tag)
			for j := i - 1; j >= 0; j-- {
				if b.recv[k][j] == box {
					b.next[k][j], chained = int32(i), true
					break
				}
			}
			b.recv[k] = append(b.recv[k], box)
			b.next[k] = append(b.next[k], -1)
		}
		if !chained {
			b.next[k] = b.next[k][:0]
		}
		b.send[k], b.inline[k] = b.send[k][:0], -1
		for i, dst := range st.Sends {
			var box *mailbox
			if link := p.shmOut[dst]; link != nil {
				box = link.box(tag)
			} else if !slices.Contains(st.Sends[:i], dst) {
				b.inline[k] = int32(i)
			} else {
				b.inline[k] = -1
			}
			b.send[k] = append(b.send[k], box)
		}
		b.maxRecvs = max(b.maxRecvs, len(st.Recvs))
	}
	return nil
}

// payload is what each send of step k carries: Bytes zero bytes, capped so
// that no receiver can append into the shared buffer.
func (b *binding) payload(k int) []byte {
	n := b.steps[k].Bytes
	return b.zeros[:n:n]
}

// resize returns s with length n, keeping its elements' backing arrays.
func resize[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	return s[:n]
}

// cursor is one rank's position in the program it is running. The rank's
// goroutine owns the binding cache and own; everything else is guarded by
// mu, the rank's lock, which its mailboxes share: a ShmHub's on a co-located
// mesh, since shm mail can arrive before the rank's Dial, the Peer's own
// otherwise. A rank has two: cur runs its barriers, pcur its probe
// programs beside them, on the same lock.
type cursor struct {
	p  *Peer
	mu *sync.Mutex

	// The program run, set by begin.
	b         *binding
	deadline  time.Duration
	resilient bool

	gen      uint32 // programs begun: a waiter of an earlier one is stale
	active   bool   // between begin and the rank's return
	step     int    // the current step; len(b.steps) once the program ended
	recvLeft int    // receives of the current step not yet taken or skipped
	sendLeft int    // sends of the current step not yet completed
	got      []bool // per receive slot of the current step
	folded   uint32 // the running minimum of the entry word and every word received
	skipped  []int  // resilient: the sorted ranks whose latched links were skipped
	err      error  // the program's error; no step is posted after it
	latch    bool   // the rank saw its failure latch: a receive that finds no mail fails

	parked bool          // the rank goroutine waits on wake
	kick   bool          // a signal claimed the parked rank's wake-up
	wake   chan struct{} // capacity 1
	over   atomic.Bool   // ready() held at the last signal: the yielding rank reads it without mu

	// The lazy deadline timer.
	timer    *time.Timer
	timerGen uint32        // the timer's identity: a callback of a replaced one is stale
	armed    bool          // a tick is pending
	period   time.Duration // the pending tick's interval: half the deadline it was armed for
	progress uint32        // events so far; the timer compares it across ticks
	seen     uint32
	quiet    int // ticks in a row without progress

	// Telemetry of the current step, used only with a registry or tracer.
	stageStart time.Time
	stageSpan  telemetry.Span
	recvSpans  []telemetry.Span

	// A program's done, set by begin: nil, or each step's completion time
	// since start. Last, so the fields a delivery uses keep their offsets.
	done  []float64
	start time.Time

	// Set when the cursor is made: the peer's tracer and registry for cur,
	// none for pcur, whose probe traffic is no barrier's.
	tracer  *telemetry.Tracer
	metered bool // observe receive waits and step durations

	// Owned by the rank goroutine.
	own      worklist
	binds    [2]*binding // the last two (plan, tag window) bindings
	nextBind int
	one      [1]mpi.Step // Stage's one-step program
	progBind binding     // the program entry's binding, made afresh each call
}

// bound returns steps bound under tagBase from the cache, binding them on a
// miss. EpochRunner and the benchmarks alternate two tag windows over one
// plan, so two entries keep a steady stream of barriers free of lookups.
func (c *cursor) bound(steps []mpi.Step, tagBase int) (*binding, error) {
	for _, b := range c.binds {
		if b != nil && b.tagBase == tagBase && len(b.steps) == len(steps) &&
			(len(steps) == 0 || &b.steps[0] == &steps[0]) {
			return b, nil
		}
	}
	b := new(binding)
	if err := c.p.bind(b, steps, tagBase); err != nil {
		return nil, err
	}
	c.binds[c.nextBind] = b
	c.nextBind = (c.nextBind + 1) % len(c.binds)
	return b, nil
}

// run executes the bound program on the rank's goroutine: it posts step 0,
// yields shmYields times if every link of the mesh is shared memory, then
// parks until the program ends or fails.
func (c *cursor) run(b *binding, deadline time.Duration, resilient bool, entry uint32, done []float64) (skipped []int, folded uint32, err error) {
	if err := c.begin(b, deadline, resilient, entry, done); err != nil {
		return nil, 0, err
	}
	c.own.drain()
	for i := 0; c.p.shmOnly && i < shmYields && !c.over.Load(); i++ {
		runtime.Gosched()
	}
	return c.wait()
}

// begin resets the cursor for b and enters step 0.
func (c *cursor) begin(b *binding, deadline time.Duration, resilient bool, entry uint32, done []float64) error {
	c.mu.Lock()
	defer c.unlock()
	if c.active {
		return fmt.Errorf("netmpi: rank %d: a collective call is already running on this peer", c.p.rank)
	}
	c.active = true
	c.gen++
	c.b, c.deadline, c.resilient, c.done = b, deadline, resilient, done
	if done != nil {
		c.start = time.Now()
	}
	c.folded, c.skipped, c.err = entry, nil, nil
	c.latch = c.p.latched(resilient)
	c.over.Store(false)
	if cap(c.got) < b.maxRecvs {
		c.got = make([]bool, b.maxRecvs)
		c.recvSpans = make([]telemetry.Span, b.maxRecvs)
	}
	c.step = 0
	if len(b.steps) > 0 {
		c.enter(&c.own)
		c.settle(&c.own)
	}
	return nil
}

// ready reports whether the rank may return: the program ended or failed,
// and no send of it is still in a writer's hands.
func (c *cursor) ready() bool {
	return c.sendLeft == 0 && (c.err != nil || c.step == len(c.b.steps))
}

// signal marks the program over once the rank may return, and claims the
// wake-up of a parked rank: unlock sends it after releasing mu, so the rank
// does not wake into a held lock. Caller holds mu.
func (c *cursor) signal() {
	if !c.ready() {
		return
	}
	c.over.Store(true)
	if c.parked {
		c.parked, c.kick = false, true
	}
}

// unlock releases mu and delivers the wake-up signal claimed. Every lock
// holder that may signal releases through it; a park has one claim, so wake
// never holds a stale token.
func (c *cursor) unlock() {
	kick := c.kick
	c.kick = false
	c.mu.Unlock()
	if kick {
		c.wake <- struct{}{}
	}
}

// index is the current step's stage index, its tag's offset in the
// run.TagSpan window, which its spans and errors name.
func (c *cursor) index() int {
	return (c.b.tagBase + c.b.steps[c.step].Tag) % run.TagSpan
}

// enter posts the current step: its sends go on the worklist with the word
// folded so far, and each receive takes its queued mail or, finding none,
// registers a waiter, unless an earlier slot of the step already waits on
// that mailbox (put hands the waiter on). Caller holds mu.
func (c *cursor) enter(w *worklist) {
	p := c.p
	st := &c.b.steps[c.step]
	tag := c.b.tagBase + st.Tag
	c.recvLeft, c.sendLeft = len(st.Recvs), len(st.Sends)
	c.progress++
	if c.metered {
		c.stageStart = time.Now()
	}
	if c.tracer != nil {
		c.stageSpan = c.tracer.Begin(p.stageSpanName(st.Recvs, st.Sends), p.rank, c.index(), -1)
	}
	if len(st.Sends) > 0 {
		w.push(item{c: c, gen: c.gen, step: int32(c.step), word: c.folded})
	}
	boxes, chained := c.b.recv[c.step], len(c.b.next[c.step]) > 0
	for slot, src := range st.Recvs {
		c.got[slot] = false
		box := boxes[slot]
		msg, ok := box.pop()
		if wt := &box.w; !ok && (!chained || wt.c != c || wt.gen != c.gen || int(wt.step) != c.step) {
			box.w = waiter{c, c.gen, int32(c.step), int32(slot)}
		}
		if c.tracer != nil {
			// Opened after the take, so the span of a message that was
			// already queued is empty, as the simulator's is; a waiter
			// cannot be satisfied before it opens, since that takes mu.
			c.recvSpans[slot] = c.tracer.BeginTag(recvSpan[p.TransportOf(src)], p.rank, c.index(), src, tag)
		}
		switch {
		case ok:
			c.deliver(slot, msg)
		case c.resilient && p.linkLatched(src):
			// A latch that came before the registration has already
			// looked for this program's waiter; whatever the link
			// delivered before it is queued.
			c.recvLinkDown(slot)
		}
	}
}

// deliver completes receive slot with msg. Caller holds mu.
func (c *cursor) deliver(slot int, msg mail) {
	c.endRecvSpan(slot) // first: a queued message's span stays empty
	p := c.p
	src := c.b.steps[c.step].Recvs[slot]
	c.got[slot] = true
	c.recvLeft--
	c.progress++
	c.folded = min(c.folded, msg.word)
	if p.shmOut[src] != nil {
		// A shared-memory frame has no reader goroutine to count it on
		// arrival, so its receiver does.
		p.m.recvFrames[src].Add(1)
		p.m.recvBytes[src].Add(int64(len(msg.payload)))
	}
	if c.metered {
		p.m.recvWait.Observe(time.Since(c.stageStart).Seconds())
	}
}

// endRecvSpan and endStageSpan close the current step's spans, if tracing.
// Caller holds mu.
func (c *cursor) endRecvSpan(slot int) {
	if c.tracer != nil {
		c.recvSpans[slot].End()
	}
}

func (c *cursor) endStageSpan() {
	if c.tracer != nil {
		c.stageSpan.End()
	}
}

// recvLinkDown completes receive slot of a resilient program whose link has
// latched: with the mail the link delivered before it failed, or skipped.
// Caller holds mu.
func (c *cursor) recvLinkDown(slot int) {
	box := c.b.recv[c.step][slot]
	box.w = waiter{}
	if msg, ok := box.pop(); ok {
		c.deliver(slot, msg)
		return
	}
	c.got[slot] = true
	c.recvLeft--
	c.progress++
	c.skipped = addRank(c.skipped, c.b.steps[c.step].Recvs[slot])
	c.endRecvSpan(slot)
}

// settle moves past every completed step, recording its completion time
// in done, entering the next one, and wakes the rank once it may return.
// Caller holds mu.
func (c *cursor) settle(w *worklist) {
	for c.err == nil && c.step < len(c.b.steps) && c.recvLeft == 0 && c.sendLeft == 0 {
		if c.done != nil {
			c.done[c.step] = time.Since(c.start).Seconds()
		}
		if c.metered {
			c.p.m.stageDur.Observe(time.Since(c.stageStart).Seconds())
		}
		c.endStageSpan()
		if c.step++; c.step < len(c.b.steps) {
			c.enter(w)
		}
	}
	if c.latch && c.err == nil && c.step < len(c.b.steps) && c.recvLeft > 0 {
		src, tag := c.waitingFor()
		var err error
		if !c.resilient {
			err = c.p.err()
		}
		if err == nil {
			err = fmt.Errorf("netmpi: rank %d: peer closed while waiting for (src %d, tag %d)", c.p.rank, src, tag)
		}
		c.err = fmt.Errorf("barrier stage %d: %w", c.index(), err)
	}
	c.signal()
}

// running reports whether a program is under way: begun, not failed, not
// ended. Caller holds mu.
func (c *cursor) running() bool {
	return c.active && c.err == nil && c.step < len(c.b.steps)
}

// waiting reports whether wt, a put's registered waiter, is a receive of
// the current step still outstanding; otherwise it is stale: its program
// failed, ended or was taken past it at a latch. Caller holds mu.
func (c *cursor) waiting(wt waiter) bool {
	return c.running() && wt.gen == c.gen && int(wt.step) == c.step && !c.got[wt.slot]
}

// sent reports n completed sends of step (gen, step); err is the first that
// failed. A failed send fails the program, and its remaining sends are never
// posted, so they count as completed too.
func (c *cursor) sent(gen uint32, step int32, n int, err error, w *worklist) {
	c.mu.Lock()
	defer c.unlock()
	if !c.active || gen != c.gen {
		return
	}
	c.sendLeft -= n
	c.progress++
	if err != nil && c.err == nil && int(step) == c.step {
		c.err = fmt.Errorf("barrier stage %d: %w", c.index(), err)
	}
	c.settle(w)
}

// skip adds dst, a send a resilient program skipped, to the skipped set.
func (c *cursor) skip(dst int) {
	c.mu.Lock()
	c.skipped = addRank(c.skipped, dst)
	c.mu.Unlock()
}

// linkDown is the latch of the link from src: a resilient program waiting
// on src stops waiting.
func (c *cursor) linkDown(src int, w *worklist) {
	c.mu.Lock()
	defer c.unlock()
	if !c.resilient || !c.running() {
		return
	}
	for slot, r := range c.b.steps[c.step].Recvs {
		if r == src && !c.got[slot] {
			c.recvLinkDown(slot)
		}
	}
	c.settle(w)
}

// wait parks the rank goroutine until the program may return, and returns
// its outcome.
func (c *cursor) wait() (skipped []int, folded uint32, err error) {
	c.mu.Lock()
	for !c.ready() {
		if c.deadline > 0 {
			c.arm()
		}
		c.parked = true
		c.mu.Unlock()
		<-c.wake
		c.mu.Lock()
	}
	if c.err == nil {
		skipped, folded = c.skipped, c.folded
	} else if c.step < len(c.b.steps) {
		for slot, box := range c.b.recv[c.step] {
			if !c.got[slot] {
				box.w = waiter{}
				c.endRecvSpan(slot)
			}
		}
		c.endStageSpan()
	}
	err = c.err
	c.active = false
	c.mu.Unlock()
	return skipped, folded, err
}

// latched reports whether the failure latch a program watches is already
// set: the peer's (done) for a plain program, the local Close (closedCh) for
// a resilient one, which goes around failed links instead.
func (p *Peer) latched(resilient bool) bool {
	if !p.down.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed || (!resilient && p.errVal != nil)
}

// failed is the failure latch a running program watches closing: the peer's
// first failure (closing false) or the local Close. Mail already queued for
// the current step is taken, as a parked receive takes it, and from then on
// a step that has to wait for a receive fails (settle). A step waiting only
// for its sends runs on: its sends complete, and the next step's are
// refused.
func (c *cursor) failed(closing bool, w *worklist) {
	c.mu.Lock()
	defer c.unlock()
	if !c.running() || (c.resilient && !closing) {
		return
	}
	c.latch = true
	for slot, box := range c.b.recv[c.step] {
		if !c.got[slot] {
			box.w = waiter{}
			if msg, ok := box.pop(); ok {
				c.deliver(slot, msg)
			}
		}
	}
	c.settle(w)
}

// waitingFor names the current step's first outstanding receive. Caller
// holds mu.
func (c *cursor) waitingFor() (src, tag int) {
	st := &c.b.steps[c.step]
	for slot, r := range st.Recvs {
		if !c.got[slot] {
			return r, c.b.tagBase + st.Tag
		}
	}
	return -1, c.b.tagBase + st.Tag
}

// arm makes sure a tick is pending at half the current deadline. A lapsed
// timer is simply reset; one still running at another deadline's interval
// is replaced, so its pending callback finds itself stale. Caller holds mu.
func (c *cursor) arm() {
	period := c.deadline / 2
	switch {
	case c.armed && c.period == period:
		return
	case c.armed || c.timer == nil:
		if c.timer != nil {
			c.timer.Stop()
		}
		c.timerGen++
		gen := c.timerGen
		c.timer = time.AfterFunc(period, func() { c.tick(gen) })
	default:
		c.timer.Reset(period)
	}
	c.armed, c.period, c.seen, c.quiet = true, period, c.progress, 0
}

// tick is the deadline timer: it times the program out after two ticks
// without progress while a receive is outstanding, re-arms while the
// program runs, and lets the timer lapse once it has ended.
func (c *cursor) tick(gen uint32) {
	c.mu.Lock()
	defer c.unlock()
	if gen != c.timerGen || !c.armed {
		return
	}
	if !c.running() || c.deadline <= 0 {
		c.armed = false
		return
	}
	if c.progress != c.seen || c.recvLeft == 0 || c.period != c.deadline/2 {
		c.seen, c.quiet = c.progress, 0
	} else if c.quiet++; c.quiet == 2 {
		c.armed = false
		src, tag := c.waitingFor()
		err := fmt.Errorf("netmpi: rank %d timed out after %v waiting for (src %d, tag %d)", c.p.rank, c.deadline, src, tag)
		if c.resilient {
			err = fmt.Errorf("%w on a healthy link", err)
		}
		c.err = fmt.Errorf("barrier stage %d: %w", c.index(), err)
		c.signal()
		return
	}
	c.timer.Reset(c.period)
}

// disarm stops the deadline timer: the peer is closing.
func (c *cursor) disarm() {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.armed = false
	c.mu.Unlock()
}

// item is one worklist entry: the sends of step, program gen, to post with
// word.
type item struct {
	c    *cursor
	gen  uint32
	step int32
	word uint32
}

// worklist holds the step posts one goroutine has produced and not yet
// handled. owner is the cursor whose rank goroutine drains it, nil on a
// reader, a writer or a plain Send.
type worklist struct {
	owner *cursor
	items []item
}

func (w *worklist) push(it item) { w.items = append(w.items, it) }

// drain posts until nothing is left; a post may queue more.
func (w *worklist) drain() {
	for n := len(w.items); n > 0; n = len(w.items) {
		it := w.items[n-1]
		w.items = w.items[:n-1]
		it.c.post(it, w)
	}
}

// post sends step it.step's signals: shared-memory puts inline, TCP frames
// to their link writers, except that the rank's own goroutine writes the
// step's inline frame itself, as the simulator posts a step's sends
// together. A failed send stops the posting.
func (c *cursor) post(it item, w *worklist) {
	p := c.p
	b := c.b // set by begin, before this item was queued
	st := &b.steps[it.step]
	tag := b.tagBase + st.Tag
	index := tag % run.TagSpan
	boxes := b.send[it.step]
	payload := b.payload(int(it.step))
	inline := -1
	if w.owner == c {
		inline = int(b.inline[it.step])
	}
	done := 0
	var err error
	for i, dst := range st.Sends {
		if boxes[i] == nil && i != inline &&
			p.out[dst].push(job{c: c, gen: it.gen, step: it.step, dst: dst, tag: tag, word: it.word}) {
			continue
		}
		var skipped bool
		skipped, err = p.stepSend(c.tracer, dst, tag, index, payload, it.word, c.resilient, boxes[i], w)
		done++
		if skipped {
			c.skip(dst)
		}
		if err != nil {
			done += len(st.Sends) - 1 - i
			break
		}
	}
	if done > 0 {
		c.sent(it.gen, it.step, done, err, w)
	}
}

// stepSend sends one signal of a step under its message span, if the
// cursor traces (tr): send, which refuses on a failed peer, or
// sendResilient, which skips a latched link.
func (p *Peer) stepSend(tr *telemetry.Tracer, dst, tag, index int, payload []byte, word uint32, resilient bool, box *mailbox, w *worklist) (skipped bool, err error) {
	var ms telemetry.Span
	if tr != nil {
		ms = tr.BeginTag(sendSpan[p.TransportOf(dst)], p.rank, index, dst, tag)
	}
	if resilient {
		skipped, err = p.sendResilient(dst, tag, payload, word, box, w)
	} else {
		err = p.send(dst, tag, payload, word, box, w)
	}
	if tr != nil {
		ms.End()
	}
	return skipped, err
}

// job is one step send handed to a TCP link writer.
type job struct {
	c        *cursor
	gen      uint32
	step     int32
	dst, tag int
	word     uint32
}

// linkQueue is a TCP link writer's queue. Pushing never blocks, so the
// goroutine that advances a program — a reader, another link's writer, a
// co-located rank — never waits on a socket.
type linkQueue struct {
	mu     sync.Mutex
	jobs   []job
	closed bool          // the writer has exited: the pusher sends inline
	ready  chan struct{} // capacity 1
}

// push queues j and reports true, or false once the writer is gone.
func (q *linkQueue) push(j job) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

// writer posts TCP link dst's queued step sends and reports each to its
// cursor, until local Close; the jobs still queued then are posted too,
// which on a closed peer refuses them at once.
func (p *Peer) writer(dst int) {
	defer p.wg.Done()
	q := &p.out[dst]
	var w worklist
	var batch []job
	for {
		closing := false
		select {
		case <-q.ready:
		case <-p.closedCh:
			closing = true
		}
		q.mu.Lock()
		batch, q.jobs = q.jobs, batch[:0]
		q.closed = closing
		q.mu.Unlock()
		for _, j := range batch {
			payload := j.c.b.payload(int(j.step)) // j's program runs on until sent
			skipped, err := p.stepSend(j.c.tracer, j.dst, j.tag, j.tag%run.TagSpan, payload, j.word, j.c.resilient, nil, &w)
			if skipped {
				j.c.skip(j.dst)
			}
			j.c.sent(j.gen, j.step, 1, err, &w)
			w.drain()
		}
		if closing {
			return
		}
	}
}
