package netmpi

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// mailbox is one (source, tag) queue of a receiving rank. It is unbounded
// so a producer — a TCP reader or a co-located sender — can always deliver
// without blocking: a full queue on one tag must not stall frames for every
// other tag sharing the link. It has no lock of its own: mu is the receiving
// rank's lock, which guards every mailbox of the rank and its cursor
// (cursor.go), so a delivery takes that one lock and nothing else. The avail
// channel (capacity 1) is a wake-up edge for Recv, not the data path: a
// take that found its message without parking leaves a stale token behind,
// which costs the next parked receiver one empty re-check and nothing else,
// and take re-arms the edge while messages remain so coalesced signals
// cannot strand a waiter.
//
// A running step program does not park on avail: put delivers into the
// waiter its cursor registered (cursor.go), and queues only a message no
// current step waits for.
type mailbox struct {
	mu    *sync.Mutex // the receiving rank's lock; guards msgs, head and w
	msgs  []mail      // queued messages are msgs[head:]
	head  int
	avail chan struct{}
	w     waiter // the first cursor receive slot waiting for the next message, if any
}

// waiter names one receive of a running step program: the cursor, the
// program run it belongs to, the step and the receive's slot in the step.
type waiter struct {
	c          *cursor
	gen        uint32
	step, slot int32
}

func (b *mailbox) wake() {
	select {
	case b.avail <- struct{}{}:
	default:
	}
}

// mail is one queued message: its payload and the version word its sender
// folded into the frame (epoch.go; 0 on every frame an EpochRunner did not
// send).
type mail struct {
	payload []byte
	word    uint32
}

// put delivers msg under the receiving rank's lock. A registered waiter of
// the current step gets it at once: the receive completes, the waiter moves
// to the step's next slot on this mailbox, if it has one, and if the step
// is complete the next step is entered and its sends are queued on w.
// Otherwise — no waiter, or a stale one — the message is queued, with a
// copy of its payload (the sender and a TCP reader reuse theirs once put
// returns, and a step reads only its length), and the wake-up edge raised.
// A parked rank is kicked after the lock is released.
func (b *mailbox) put(msg mail, w *worklist) {
	b.mu.Lock()
	if wt := b.w; wt.c != nil {
		b.w = waiter{}
		if c := wt.c; c.waiting(wt) {
			c.deliver(int(wt.slot), msg)
			if chain := c.b.next[c.step]; len(chain) > 0 && chain[wt.slot] >= 0 {
				b.w = waiter{c, wt.gen, wt.step, chain[wt.slot]}
			}
			c.settle(w)
			c.unlock()
			return
		}
	}
	// Reclaim the consumed prefix instead of growing once it is at least half
	// the array: steady traffic then reuses one backing array forever.
	if b.head > 0 && len(b.msgs) == cap(b.msgs) && b.head >= len(b.msgs)/2 {
		n := copy(b.msgs, b.msgs[b.head:])
		clear(b.msgs[n:])
		b.msgs, b.head = b.msgs[:n], 0
	}
	if len(msg.payload) > 0 {
		msg.payload = append([]byte(nil), msg.payload...)
	}
	b.msgs = append(b.msgs, msg)
	b.mu.Unlock()
	b.wake()
}

// pop dequeues the oldest message, if any. Caller holds b.mu.
func (b *mailbox) pop() (mail, bool) {
	if b.head == len(b.msgs) {
		return mail{}, false
	}
	msg := b.msgs[b.head]
	b.msgs[b.head] = mail{}
	if b.head++; b.head == len(b.msgs) {
		b.msgs, b.head = b.msgs[:0], 0
	}
	return msg, true
}

// take is pop for a receive that may park: it takes the rank's lock, and
// re-arms the wake-up edge while messages remain.
func (b *mailbox) take() (mail, bool) {
	b.mu.Lock()
	msg, ok := b.pop()
	more := b.head < len(b.msgs)
	b.mu.Unlock()
	if more {
		b.wake()
	}
	return msg, ok
}

// inbox holds the mailboxes fed by one source rank, keyed by tag. A TCP
// link's inbox is private to the receiving Peer and fed by its reader
// goroutine; a shared-memory link's inbox lives in the segment both
// endpoints share (shmLink) and is fed by the sender itself. Either way its
// mailboxes share the receiving rank's lock, rank. mu guards the map only
// and is never taken under a rank's lock.
type inbox struct {
	mu    sync.Mutex
	rank  *sync.Mutex
	boxes map[int]*mailbox
}

// box returns (creating on demand) the mailbox of one tag.
func (in *inbox) box(tag int) *mailbox {
	in.mu.Lock()
	defer in.mu.Unlock()
	b, ok := in.boxes[tag]
	if !ok {
		if in.boxes == nil {
			in.boxes = map[int]*mailbox{}
		}
		b = &mailbox{mu: in.rank, avail: make(chan struct{}, 1)}
		in.boxes[tag] = b
	}
	return b
}

// shmYields is how many times a rank yields the processor before it parks:
// a Recv on a shared-memory link, re-checking its mailbox, and a barrier on
// a mesh whose every link is shared memory, after posting its first step,
// re-checking whether its program ended (cursor.go). An shm signal's sender
// is a goroutine of this process that delivers straight into the mailbox
// and, when that completes a step, posts the receiver's next step itself, so
// letting the other ranks run is usually all the wait there is, and a yield
// is several times cheaper than park + wake-up. The budget is deliberately
// tiny: with more runnable ranks than processors a long spin only delays the
// ranks everyone is waiting for (results/pr15_shm_onehop.md has the
// {0, 2, 8, 64} table of the per-receive wait; results/pr46_progress.md
// measures 0 against 2 for the per-barrier one). Receives on TCP links, and
// barriers on a mesh with any TCP link, never yield: their progress waits on
// reader goroutines blocked in the kernel, and yielding in front of them
// starves them (a 2-node mixed mesh runs ≈ 15 % faster without the yields).
const shmYields = 2

// timerPool recycles the deadline timers of parked receives; go.mod's go 1.23
// timers deliver nothing stale after Stop, so a recycled timer needs no drain.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// park blocks on the mailbox's wake-up edge until a message comes, the
// peer's failure latch (down) closes or the deadline passes, and reports
// whether it got a message. The timer exists only here, past the fast paths.
func (b *mailbox) park(deadline time.Duration, down <-chan struct{}) (mail, bool) {
	var timeout <-chan time.Time
	if deadline > 0 {
		timer := timerPool.Get().(*time.Timer)
		timer.Reset(deadline)
		defer func() { timer.Stop(); timerPool.Put(timer) }()
		timeout = timer.C
	}
	for cut := false; ; {
		select {
		case <-b.avail:
		case <-down:
			cut = true
		case <-timeout:
			cut = true
		}
		if msg, ok := b.take(); ok || cut {
			return msg, ok
		}
	}
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. The deadline bounds the wait; zero means no time
// bound, but every Recv — deadline or not — wakes immediately when the peer
// fails or is closed, returning the latched transport error. Mail delivered
// before a failure stays readable.
func (p *Peer) Recv(src, tag int, deadline time.Duration) ([]byte, error) {
	if src < 0 || src >= p.size || src == p.rank {
		return nil, fmt.Errorf("netmpi: rank %d receiving from invalid rank %d", p.rank, src)
	}
	if err := p.checkTag(tag); err != nil {
		return nil, err
	}
	b := p.in[src].box(tag)
	if p.m.enabled {
		start := time.Now()
		defer func() { p.m.recvWait.Observe(time.Since(start).Seconds()) }()
	}
	shm := p.shmOut[src] != nil
	msg, ok := b.take()
	for i := 0; shm && !ok && i < shmYields; i++ {
		runtime.Gosched()
		msg, ok = b.take()
	}
	if !ok {
		msg, ok = b.park(deadline, p.done)
	}
	if ok {
		if shm {
			// A shared-memory frame has no reader goroutine to count it on
			// arrival, so its receiver does.
			p.m.recvFrames[src].Add(1)
			p.m.recvBytes[src].Add(int64(len(msg.payload)))
		}
		return msg.payload, nil
	}
	if err := p.err(); err != nil {
		return nil, err
	}
	select {
	case <-p.done: // with no latched error, the local Close
		return nil, fmt.Errorf("netmpi: rank %d: peer closed while waiting for (src %d, tag %d)", p.rank, src, tag)
	default:
		return nil, fmt.Errorf("netmpi: rank %d timed out after %v waiting for (src %d, tag %d)", p.rank, deadline, src, tag)
	}
}
