// Package netmpi executes compiled barrier plans over real TCP connections —
// the transport that turns the tuned signal patterns into a deployable
// library outside the simulator (§VIII: "employ this method in a library
// implementation which would benefit unmodified application codes").
//
// Each rank owns one Peer: a listener plus one duplex TCP connection to
// every other rank (rank i dials every j < i and accepts from every j > i,
// so the mesh forms without a coordinator). Mesh formation tolerates the
// listener-startup race: dials retry with exponential backoff until the
// formation timeout, so ranks need not start in any particular order.
// Messages are length-prefixed frames carrying a tag and a version word
// (epoch.go); per-connection reader goroutines demultiplex frames into
// per-(source, tag) mailboxes, preserving per-link FIFO order exactly like
// the simulator's non-overtaking guarantee.
// Mailboxes are unbounded queues and readers never block on delivery, so a
// slow consumer on one tag cannot head-of-line-block other tags from the
// same source. Links between co-located ranks (WithColocation) skip sockets,
// frames and readers altogether: the sender puts straight into the
// receiver's mailbox (shm.go). Every mailbox of a rank, on either
// transport, shares one lock with the rank's barrier cursor, so delivering
// a signal takes one lock acquisition.
//
// Barrier correctness needs only the knowledge recurrence of the schedule
// (Eq. 3), which holds for eager sends; a rank leaves the barrier when every
// signal addressed to it has arrived. A barrier is the rank's step program
// (run.Plan.RankOps; Peer.Stage, the run.Stager contract, is a one-step
// one), advanced by whichever goroutine completes its current step, under a
// per-receive deadline (cursor.go). The probe's programs (probe.go) run on a
// second cursor of the rank, beside its barriers.
//
// # Failure model
//
// A Peer fails as a unit, and it fails fast. The first connection error —
// including a remote peer closing or crashing (EOF mid-stream) — latches a
// descriptive error and closes the peer's done channel, which wakes every
// blocked Recv and parked barrier immediately, deadline or not. A
// collective protocol cannot make progress once any participant is gone, so
// the whole peer turning poisoned is the correct granularity: callers see
// exactly one of
//
//   - the payload, if the frame arrived before (or despite) the failure —
//     already-delivered mail stays readable;
//   - the latched transport error naming the dead link, if the mesh broke;
//   - a timeout error naming the missing (source, tag), if the deadline
//     elapsed with the mesh healthy (e.g. a silently dropped frame);
//   - a "peer closed" error if the local rank called Close mid-wait.
//
// Only a locally initiated Close is an orderly shutdown; everything else,
// EOF included, is a failure. No call hangs forever: Recv with a deadline
// is bounded by it, and Recv without one is bounded by failure detection.
package netmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topobarrier/internal/telemetry"
)

// Peer is one rank's endpoint in the fully connected mesh. Each link is
// carried by exactly one transport: framed TCP (conns[j] non-nil) or shared
// memory (shmOut[j] non-nil), selected at Dial time from the co-location map
// (WithColocation). Both transports terminate in the same mailbox type and
// the same failure latches, so every receive path behaves identically
// regardless of what carried the message; the one thing a receive reads off
// the link's class is whether yielding before it parks can help (shmYields).
type Peer struct {
	rank  int
	size  int
	conns []net.Conn

	// in[j] holds the mailboxes fed by rank j: private and filled by the
	// connection's reader on a TCP link, owned by the shared segment and
	// filled by rank j's own sends on a shared-memory link.
	in []*inbox

	// Hybrid transport state: nodes is the co-location vector (nil = pure
	// TCP), hub the segment rendezvous, shmOut[j] the outbound direction of
	// the shared-memory link to rank j (nil for TCP links).
	hub     *ShmHub
	nodes   []int
	shmOut  []*shmLink
	shmOnly bool // every link is shared memory: a parking barrier yields first (shmYields)

	mu     sync.Mutex
	errVal error
	closed bool
	down   atomic.Bool    // errVal != nil || closed: lets Send skip mu while healthy
	done   chan struct{}  // closed on first failure or on Close; wakes all waiters
	wg     sync.WaitGroup // the TCP readers and writers; shared-memory links own no goroutine
	// out[j] queues the step sends TCP link j's writer posts (cursor.go).
	out []linkQueue
	// cur is the rank's position in the step program it is running: the
	// one executor behind Barrier, BarrierResilient, EpochRunner and Stage.
	// pcur runs the probe's programs beside it, untraced.
	cur, pcur cursor

	// Per-link failure state, feeding the resilient execution path. fail()
	// latches both granularities: linkErr[src] records which link broke
	// (BarrierResilient keeps going around it, told by a cursor event), while
	// errVal/done preserve the peer-fails-as-a-unit semantics every plain
	// Recv and barrier sees. closedCh closes only on a locally initiated
	// Close — the one event that must stop the resilient path and the link
	// writers too.
	linkErr  []error
	closedCh chan struct{}

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	m      peerMetrics
}

// Option configures a Peer at Dial time.
type Option func(*Peer)

// WithTelemetry attaches a metrics registry: per-link frame and byte
// counters, receive-wait and barrier latency histograms, dial retries, and
// failure latches. A nil registry (or omitting the option) keeps the
// disabled path: every metric call degrades to a pointer check.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(p *Peer) { p.reg = reg }
}

// WithTracer attaches a span tracer: each Barrier stage is recorded as a
// (rank, stage) span, and mesh formation as a per-rank dial span. A nil
// tracer keeps span emission a pointer check.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(p *Peer) { p.tracer = tr }
}

// peerMetrics holds the pre-resolved metric handles of one peer. The slices
// are always allocated (nil entries when telemetry is off) so the hot path
// is an index plus the metric's own nil check; `enabled` additionally gates
// the time.Now calls that latency observations need.
type peerMetrics struct {
	enabled    bool
	sendFrames []*telemetry.Counter
	sendBytes  []*telemetry.Counter
	recvFrames []*telemetry.Counter
	recvBytes  []*telemetry.Counter
	dialRetry  *telemetry.Counter
	failures   *telemetry.Counter
	recvWait   *telemetry.Histogram
	stageDur   *telemetry.Histogram
	barrierDur *telemetry.Histogram
}

// initMetrics resolves the peer's metric handles from its registry. With a
// nil registry every handle stays nil and the slices hold nil pointers.
func (p *Peer) initMetrics() {
	p.m.sendFrames = make([]*telemetry.Counter, p.size)
	p.m.sendBytes = make([]*telemetry.Counter, p.size)
	p.m.recvFrames = make([]*telemetry.Counter, p.size)
	p.m.recvBytes = make([]*telemetry.Counter, p.size)
	if p.reg == nil {
		return
	}
	p.m.enabled = true
	me := strconv.Itoa(p.rank)
	for j := 0; j < p.size; j++ {
		if j == p.rank {
			continue
		}
		pj := strconv.Itoa(j)
		tc := p.TransportOf(j).String()
		p.m.sendFrames[j] = p.reg.Counter(telemetry.Label("netmpi_send_frames_total", "rank", me, "peer", pj, "transport", tc))
		p.m.sendBytes[j] = p.reg.Counter(telemetry.Label("netmpi_send_bytes_total", "rank", me, "peer", pj, "transport", tc))
		p.m.recvFrames[j] = p.reg.Counter(telemetry.Label("netmpi_recv_frames_total", "rank", me, "peer", pj, "transport", tc))
		p.m.recvBytes[j] = p.reg.Counter(telemetry.Label("netmpi_recv_bytes_total", "rank", me, "peer", pj, "transport", tc))
	}
	p.m.dialRetry = p.reg.Counter(telemetry.Label("netmpi_dial_retries_total", "rank", me))
	p.m.failures = p.reg.Counter(telemetry.Label("netmpi_failures_total", "rank", me))
	p.m.recvWait = p.reg.Histogram(telemetry.Label("netmpi_recv_wait_seconds", "rank", me), nil)
	p.m.stageDur = p.reg.Histogram(telemetry.Label("netmpi_stage_seconds", "rank", me), nil)
	p.m.barrierDur = p.reg.Histogram(telemetry.Label("netmpi_barrier_seconds", "rank", me), nil)
}

// frame header: tag, payload length, version word.
const headerBytes = 12

// Dial retry/backoff bounds for the listener-startup race: the first retry
// waits dialBackoffMin, each subsequent one doubles, capped at
// dialBackoffMax, all bounded by the overall formation timeout.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 200 * time.Millisecond
)

// dialRetry runs dial with exponential backoff until it succeeds or the
// deadline is exhausted, returning the connection, the number of attempts,
// and the last dial error. The final sleep is clamped to the remaining
// budget so one last attempt lands right at the deadline: giving up as soon
// as now+backoff overshoots would silently discard up to backoffMax of the
// dial budget, failing dials that a listener coming up just inside the
// deadline would have satisfied. onRetry is invoked once per failed attempt.
func dialRetry(dial func() (net.Conn, error), deadline time.Time, backoffMin, backoffMax time.Duration, onRetry func()) (net.Conn, int, error) {
	backoff := backoffMin
	attempts := 0
	for {
		attempts++
		c, err := dial()
		if err == nil {
			return c, attempts, nil
		}
		if onRetry != nil {
			onRetry()
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, attempts, err
		}
		sleep := backoff
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// Listen opens a rank's listener on addr (use "127.0.0.1:0" for tests) and
// returns it; its resolved address must be distributed to all peers before
// Dial.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial builds the mesh for the given rank: addrs[i] must hold rank i's
// listener address, and ln must be the listener previously created for this
// rank. It blocks until all p-1 connections are established or the timeout
// elapses. Outbound dials retry with exponential backoff within the timeout,
// so a rank may dial peers whose listeners are not up yet; a second
// handshake claiming an already-connected rank is rejected (both
// connections closed) rather than silently replacing — and leaking — the
// established one.
func Dial(rank int, addrs []string, ln net.Listener, timeout time.Duration, opts ...Option) (*Peer, error) {
	p := len(addrs)
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("netmpi: rank %d out of range for %d addresses", rank, p)
	}
	peer := &Peer{
		rank:     rank,
		size:     p,
		conns:    make([]net.Conn, p),
		in:       make([]*inbox, p),
		shmOut:   make([]*shmLink, p),
		out:      make([]linkQueue, p),
		done:     make(chan struct{}),
		linkErr:  make([]error, p),
		closedCh: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(peer)
	}
	// The rank's lock guards its cursor and every mailbox addressed to it.
	// A co-located rank's comes from the hub, whose segments hand it to the
	// shm inboxes they hold for this rank before it dials.
	lock := new(sync.Mutex)
	if peer.nodes != nil {
		if len(peer.nodes) != p {
			return nil, fmt.Errorf("netmpi: rank %d: colocation vector covers %d ranks, mesh has %d", rank, len(peer.nodes), p)
		}
		if peer.hub == nil {
			return nil, fmt.Errorf("netmpi: rank %d: colocation without a shared ShmHub", rank)
		}
		lock = peer.hub.rankLock(rank)
	}
	for j := 0; j < p; j++ {
		if j != rank {
			peer.in[j] = &inbox{rank: lock}
		}
	}
	peer.initMetrics()
	peer.cur = cursor{p: peer, mu: lock, wake: make(chan struct{}, 1), tracer: peer.tracer, metered: peer.m.enabled}
	peer.pcur = cursor{p: peer, mu: lock, wake: make(chan struct{}, 1)}
	peer.cur.own.owner, peer.pcur.own.owner = &peer.cur, &peer.pcur
	// Attach the shared-memory links before any TCP work: co-located links
	// rendezvous in the hub instead of dialing, so the socket loops below
	// only cover the cross-node remainder. Mail a co-located rank sent before
	// this point is already waiting in the segment's inbox; a rank that came
	// and went before it has left its close mark there.
	for j := 0; j < p; j++ {
		if j == rank || peer.TransportOf(j) != TransportShm {
			continue
		}
		out, in := peer.hub.segment(rank, j).links(rank, j)
		peer.shmOut[j], peer.in[j] = out, &in.inbox
		if in.attach(peer) {
			peer.fail(j, errShmPeerClosed)
		}
	}
	dialSpan := peer.tracer.Begin("netmpi.dial", rank, -1, -1)
	defer dialSpan.End()
	deadline := time.Now().Add(timeout)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Dial lower-numbered ranks over TCP; identify ourselves with a 4-byte
	// rank header. Shared-memory links were attached above and dial nothing.
	// Connection errors are retried with exponential backoff until the
	// deadline: the peer's listener may simply not be up yet.
	for j := 0; j < rank; j++ {
		if peer.shmOut[j] != nil {
			continue
		}
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := net.Dialer{Deadline: deadline}
			conn, attempts, err := dialRetry(func() (net.Conn, error) {
				return d.Dial("tcp", addrs[j])
			}, deadline, dialBackoffMin, dialBackoffMax, peer.m.dialRetry.Inc)
			if err != nil {
				fail(fmt.Errorf("netmpi: rank %d dialing rank %d (%d attempts): %w",
					rank, j, attempts, err))
				return
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(rank))
			if _, err := conn.Write(hdr[:]); err != nil {
				fail(fmt.Errorf("netmpi: rank %d handshake to %d: %w", rank, j, err))
				conn.Close()
				return
			}
			mu.Lock()
			peer.conns[j] = conn
			mu.Unlock()
		}()
	}

	// Accept higher-numbered TCP ranks (co-located ones never dial).
	accepts := 0
	for j := rank + 1; j < p; j++ {
		if peer.shmOut[j] == nil {
			accepts++
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := 0; a < accepts; a++ {
			if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				dl.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("netmpi: rank %d accepting: %w", rank, err))
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				fail(fmt.Errorf("netmpi: rank %d reading handshake: %w", rank, err))
				conn.Close()
				return
			}
			src := int(binary.BigEndian.Uint32(hdr[:]))
			if src <= rank || src >= p {
				fail(fmt.Errorf("netmpi: rank %d got handshake from invalid rank %d", rank, src))
				conn.Close()
				return
			}
			if peer.shmOut[src] != nil {
				fail(fmt.Errorf("netmpi: rank %d got a TCP handshake from co-located rank %d (transport maps disagree)", rank, src))
				conn.Close()
				return
			}
			mu.Lock()
			if old := peer.conns[src]; old != nil {
				mu.Unlock()
				conn.Close()
				old.Close()
				fail(fmt.Errorf("netmpi: rank %d: duplicate handshake claiming rank %d; closed both connections", rank, src))
				return
			}
			peer.conns[src] = conn
			mu.Unlock()
		}
	}()
	wg.Wait()
	if firstErr != nil {
		peer.Close()
		return nil, firstErr
	}

	// Start each TCP connection's demultiplexing reader and link writer.
	peer.shmOnly = true
	for j, conn := range peer.conns {
		if conn == nil {
			continue
		}
		peer.shmOnly = false
		peer.out[j].ready = make(chan struct{}, 1)
		peer.wg.Add(2)
		go peer.reader(j, conn)
		go peer.writer(j)
	}
	return peer, nil
}

// Rank returns this peer's rank.
func (p *Peer) Rank() int { return p.rank }

// Size returns the number of ranks in the mesh.
func (p *Peer) Size() int { return p.size }

// reader decodes frames from one connection into mailboxes. Delivery never
// blocks (mailboxes are unbounded), so one saturated (source, tag) queue
// cannot head-of-line-block the other tags multiplexed on this link. A frame
// that completes a step of this rank's program advances it right here; the
// next step's TCP frames go to the link writers, so a reader never writes.
func (p *Peer) reader(src int, conn net.Conn) {
	defer p.wg.Done()
	var hdr [headerBytes]byte
	var w worklist
	var buf []byte // every frame's payload, read over the last: put copies what it queues
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			p.fail(src, err)
			return
		}
		tag := int(int32(binary.BigEndian.Uint32(hdr[:4])))
		n := int(binary.BigEndian.Uint32(hdr[4:8]))
		var payload []byte
		if n > 0 {
			if cap(buf) < n {
				buf = make([]byte, n)
			}
			payload = buf[:n]
			if _, err := io.ReadFull(conn, payload); err != nil {
				p.fail(src, err)
				return
			}
		}
		p.m.recvFrames[src].Add(1)
		p.m.recvBytes[src].Add(int64(n))
		p.in[src].box(tag).put(mail{payload, binary.BigEndian.Uint32(hdr[8:])}, &w)
		w.drain()
	}
}

// fail latches the first transport error and closes done so every blocked
// Recv wakes immediately. A remote close — EOF on a socket, the closing
// peer's own call on shared memory (errShmPeerClosed) — counts as a failure:
// only a locally initiated Close is orderly, anything else means a
// participant is gone and the collective cannot complete. The latched
// description names the transport that failed.
func (p *Peer) fail(src int, err error) {
	var desc error
	switch {
	case errors.Is(err, errShmPeerClosed):
		desc = fmt.Errorf("netmpi: rank %d: shm link from rank %d closed (peer exited or crashed)", p.rank, src)
	case errors.Is(err, io.EOF):
		desc = fmt.Errorf("netmpi: rank %d: tcp connection from rank %d closed (peer exited or crashed)", p.rank, src)
	case errors.Is(err, io.ErrUnexpectedEOF):
		desc = fmt.Errorf("netmpi: rank %d: tcp connection from rank %d severed mid-frame (truncated stream)", p.rank, src)
	default:
		desc = fmt.Errorf("netmpi: rank %d on %s link to rank %d: %w", p.rank, p.TransportOf(src), src, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return // orderly local shutdown
	}
	if p.linkErr[src] == nil {
		p.linkErr[src] = desc
	}
	first := p.errVal == nil // else the peer-level latch was set by an earlier link
	if first {
		p.errVal = desc
		p.down.Store(true)
		p.m.failures.Inc()
		close(p.done)
	}
	p.mu.Unlock()
	// A latched link is an event for a resilient program waiting on it, the
	// peer's first failure one for a plain program, on either cursor.
	var w worklist
	p.cur.linkDown(src, &w)
	if first {
		p.cur.failed(false, &w)
		p.pcur.failed(false, &w)
	}
	w.drain()
}

// LinkErr reports the latched error of the link to one peer rank, nil while
// the link is healthy. Unlike Err, which reflects the whole peer turning
// poisoned on the first failure anywhere in the mesh, LinkErr distinguishes
// which links actually broke — the information the resilient execution path
// routes around.
func (p *Peer) LinkErr(src int) error {
	if src < 0 || src >= p.size || src == p.rank {
		return fmt.Errorf("netmpi: rank %d has no link to rank %d", p.rank, src)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.linkErr[src]
}

// Send transmits one tagged message to dst. Sends are eager: completion
// means the frame entered the TCP stream or sits in the co-located
// receiver's mailbox. The caller keeps ownership of payload on both
// transports (a mailbox copies the payloads it queues). A failed or closed
// peer refuses further sends with its latched error, propagating the
// failure to senders as fast as to receivers.
func (p *Peer) Send(dst, tag int, payload []byte) error {

	if dst < 0 || dst >= p.size || dst == p.rank {
		return fmt.Errorf("netmpi: rank %d sending to invalid rank %d", p.rank, dst)
	}
	if err := p.checkTag(tag); err != nil {
		return err
	}
	var w worklist // the step a co-located put completes posts from here
	err := p.send(dst, tag, payload, 0, nil, &w)
	w.drain()
	return err
}

// send transmits one frame with its version word to a validated dst; box is
// dst's mailbox for tag when the link is shared memory and the caller has it
// bound, nil otherwise. A put that completes a step of dst's program queues
// the next step's posts on w.
func (p *Peer) send(dst, tag int, payload []byte, word uint32, box *mailbox, w *worklist) error {
	if p.down.Load() {
		if err := p.err(); err != nil {
			return err
		}
		return fmt.Errorf("netmpi: rank %d: send to %d on closed peer", p.rank, dst)
	}
	if err := p.writeFrame(dst, tag, payload, word, box, w); err != nil {
		return fmt.Errorf("netmpi: rank %d sending to %d over %s: %w", p.rank, dst, p.TransportOf(dst), err)
	}
	return nil
}

// framePool recycles TCP frame buffers: barrier traffic sends a steady
// stream of small frames, and allocating each one was measurable on the hot
// path. Buffers grow to the largest payload they ever carried and are reused
// at that size. Pointer-to-slice so Put does not allocate a box.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeFrame hands one message to dst's transport, updating the send
// metrics. The shared-memory path puts it into the receiver's mailbox (box,
// or the one it looks up) right here, on the sender's goroutine, with w for
// the posts the put may queue (put copies a payload it queues, so the caller
// keeps ownership); the TCP path encodes a pooled length-prefixed frame and
// writes it in one call.
func (p *Peer) writeFrame(dst, tag int, payload []byte, word uint32, box *mailbox, w *worklist) error {
	if link := p.shmOut[dst]; link != nil {
		if box == nil {
			box = link.box(tag)
		}
		box.put(mail{payload, word}, w)
		p.m.sendFrames[dst].Add(1)
		p.m.sendBytes[dst].Add(int64(len(payload)))
		return nil
	}
	bp := framePool.Get().(*[]byte)
	need := headerBytes + len(payload)
	frame := *bp
	if cap(frame) < need {
		frame = make([]byte, need)
	}
	frame = frame[:need]
	binary.BigEndian.PutUint32(frame[:4], uint32(int32(tag)))
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[8:12], word)
	copy(frame[headerBytes:], payload)
	_, err := p.conns[dst].Write(frame)
	*bp = frame[:0]
	framePool.Put(bp)
	if err != nil {
		return err
	}
	p.m.sendFrames[dst].Add(1)
	p.m.sendBytes[dst].Add(int64(len(payload)))
	return nil
}

// checkTag refuses a tag the frame's signed 32-bit tag field would
// truncate, so both transports share one tag space: a shared-memory mailbox
// keys on the whole int, a TCP reader on what the frame carried.
func (p *Peer) checkTag(tag int) error {
	if tag != int(int32(tag)) {
		return fmt.Errorf("netmpi: rank %d: tag %d outside the 32-bit frame tag range", p.rank, tag)
	}
	return nil
}

func (p *Peer) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errVal
}

// Err reports the latched transport error, if any — nil on a healthy peer.
func (p *Peer) Err() error { return p.err() }

// Close tears the mesh down, waking any blocked Recv with a "peer closed"
// error. Close is idempotent.
func (p *Peer) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.down.Store(true)
	if !already {
		close(p.closedCh)
		if p.errVal == nil {
			close(p.done) // fail() closes it otherwise
		}
	}
	p.mu.Unlock()
	if !already {
		var w worklist
		p.cur.failed(true, &w)
		p.pcur.failed(true, &w)
		w.drain()
	}
	p.cur.disarm()
	p.pcur.disarm()
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	if !already {
		// Closing the outgoing links is the shm transport's FIN, delivered by
		// hand: latch, in each co-located peer, the same "peer exited"
		// failure a TCP EOF produces. p.mu is not held, so two peers closing
		// at once cannot deadlock on each other's latch.
		for _, link := range p.shmOut {
			if link == nil {
				continue
			}
			if consumer := link.close(); consumer != nil {
				consumer.fail(p.rank, errShmPeerClosed)
			}
		}
	}
	p.wg.Wait()
	return nil
}
