package netmpi

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/faultnet"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// waitAll fails the test with a full goroutine dump if the group does not
// finish within d — the anti-hang watchdog for every failure-path test.
func waitAll(t *testing.T, wg *sync.WaitGroup, d time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: still blocked after %v — transport hang:\n%s", what, d, buf)
	}
}

// checkNoReaderLeak asserts that no netmpi link goroutine — reader or
// writer — survives the test (all peers must have been closed first). On
// failure the dump is also written to $NETMPI_LEAK_DIR for CI artifact
// collection.
func checkNoReaderLeak(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var dump []byte
	for {
		buf := make([]byte, 1<<20)
		dump = buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(dump, []byte("netmpi.(*Peer).reader")) &&
			!bytes.Contains(dump, []byte("netmpi.(*Peer).writer")) {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if dir := os.Getenv("NETMPI_LEAK_DIR"); dir != "" {
		name := strings.ReplaceAll(t.Name(), "/", "_") + "-goroutines.txt"
		if err := os.WriteFile(filepath.Join(dir, name), dump, 0o644); err != nil {
			t.Logf("writing leak dump: %v", err)
		}
	}
	t.Fatalf("link goroutines leaked after Close:\n%s", dump)
}

// faultMesh is mesh with faultRank's listener wrapped in fault injection:
// every connection accepted there (i.e. every link on which faultRank is
// the lower-numbered end) applies a fresh injector to faultRank's outbound
// frames.
func faultMesh(t *testing.T, p, faultRank int, inj func() faultnet.Injector) []*Peer {
	t.Helper()
	return wrappedMesh(t, p, func(i int, ln net.Listener) net.Listener {
		if i != faultRank {
			return ln
		}
		return &faultnet.Listener{Listener: ln, New: inj}
	})
}

// wrappedMesh is mesh with every rank's listener passed through wrap before
// the mesh is dialled over them.
func wrappedMesh(tb testing.TB, p int, wrap func(rank int, ln net.Listener) net.Listener, opts ...Option) []*Peer {
	tb.Helper()
	listeners, err := LoopbackListeners(p)
	if err != nil {
		tb.Fatal(err)
	}
	for i, ln := range listeners {
		listeners[i] = wrap(i, ln)
	}
	peers, err := MeshOver(listeners, meshTimeout, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { CloseMesh(peers) })
	return peers
}

// TestRecvNoDeadlineWakesOnPeerFailure is the satellite regression for the
// deadline-zero hang: a Recv with no time bound must still wake with a
// descriptive error the moment the mesh breaks, not block forever.
func TestRecvNoDeadlineWakesOnPeerFailure(t *testing.T) {
	peers := mesh(t, 2)
	got := make(chan error, 1)
	go func() {
		_, err := peers[1].Recv(0, 7, 0)
		got <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the Recv block first
	peers[0].Close()                  // rank 0 "crashes"
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("deadline-zero Recv returned nil after the peer died")
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Errorf("error does not describe the dead link: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline-zero Recv still blocked 5s after peer death")
	}
}

// TestRecvNoDeadlineWakesOnLocalClose: Close on the receiving peer itself
// must also wake unbounded receives.
func TestRecvNoDeadlineWakesOnLocalClose(t *testing.T) {
	peers := mesh(t, 2)
	got := make(chan error, 1)
	go func() {
		_, err := peers[1].Recv(0, 7, 0)
		got <- err
	}()
	time.Sleep(50 * time.Millisecond)
	peers[1].Close()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("Recv on a closed peer returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after local Close")
	}
}

// TestReaderHeadOfLineBlocking is the satellite regression for the mailbox
// cap deadlock: a large undrained backlog on one tag must not stop the
// reader from delivering other tags on the same link.
func TestReaderHeadOfLineBlocking(t *testing.T) {
	peers := mesh(t, 2)
	const backlog = 300 // far beyond the old 64-slot mailbox capacity
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < backlog; i++ {
			if err := peers[0].Send(1, 5, []byte{byte(i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- peers[0].Send(1, 6, []byte{42})
	}()
	// The tag-6 frame is queued on the wire behind the whole tag-5 backlog;
	// with a blocking reader it would never be demultiplexed.
	msg, err := peers[1].Recv(0, 6, meshTimeout)
	if err != nil {
		t.Fatalf("tag 6 blocked behind tag-5 backlog: %v", err)
	}
	if msg[0] != 42 {
		t.Fatalf("tag 6 payload = %d", msg[0])
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// FIFO order on the backlogged tag survives the unbounded queueing.
	for i := 0; i < backlog; i++ {
		msg, err := peers[1].Recv(0, 5, meshTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, msg[0])
		}
	}
}

// TestKilledPeerMidBarrierFailsFast is the end-to-end acceptance test:
// killing one rank mid-barrier makes every surviving rank's Barrier return
// an error by failure propagation — far faster than the receive deadline —
// with no goroutine leaks afterwards.
func TestKilledPeerMidBarrierFailsFast(t *testing.T) {
	const p = 6
	const victim = 2
	peers := mesh(t, p)
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: everyone present, barrier completes.
	var warm sync.WaitGroup
	warmErrs := make([]error, p)
	for r := 0; r < p; r++ {
		r := r
		warm.Add(1)
		go func() {
			defer warm.Done()
			warmErrs[r] = peers[r].Barrier(pl, 0, meshTimeout)
		}()
	}
	waitAll(t, &warm, 15*time.Second, "warmup barrier")
	for r, err := range warmErrs {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}

	// Round 2: the victim dies instead of entering. Deadline is deliberately
	// enormous — survivors must fail via EOF propagation, not timeouts.
	const deadline = 30 * time.Second
	var wg sync.WaitGroup
	errs := make([]error, p)
	elapsed := make([]time.Duration, p)
	start := time.Now()
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = peers[r].Barrier(pl, run.TagSpan, deadline)
			elapsed[r] = time.Since(start)
		}()
	}
	time.Sleep(30 * time.Millisecond) // let survivors block mid-barrier
	peers[victim].Close()
	waitAll(t, &wg, 15*time.Second, "surviving ranks")
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if errs[r] == nil {
			t.Errorf("rank %d completed a barrier that rank %d never entered", r, victim)
		}
		if elapsed[r] > 5*time.Second {
			t.Errorf("rank %d needed %v — timed out instead of failing fast", r, elapsed[r])
		}
	}
	for _, pe := range peers {
		pe.Close()
	}
	checkNoReaderLeak(t)
}

// TestDialRetrySurvivesLateListener is the mesh-formation race: rank 1
// starts dialing before rank 0's listener exists; bounded retry with
// backoff must carry the dial until the listener comes up.
func TestDialRetrySurvivesLateListener(t *testing.T) {
	// Reserve an address for rank 0 by binding and releasing it.
	tmp, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := tmp.Addr().String()
	tmp.Close()

	ln1, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	addrs := []string{addr0, ln1.Addr().String()}

	var peer1 *Peer
	var err1 error
	dialed := make(chan struct{})
	go func() {
		defer close(dialed)
		peer1, err1 = Dial(1, addrs, ln1, meshTimeout)
	}()

	time.Sleep(100 * time.Millisecond) // guarantee refused first attempts
	ln0, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Skipf("reserved port %s was reused by another process: %v", addr0, err)
	}
	defer ln0.Close()
	peer0, err0 := Dial(0, addrs, ln0, meshTimeout)
	<-dialed
	if err0 != nil || err1 != nil {
		t.Fatalf("mesh formation across the startup race: rank0=%v rank1=%v", err0, err1)
	}
	defer peer0.Close()
	defer peer1.Close()

	// The retried link carries traffic.
	if err := peer1.Send(0, 3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	msg, err := peer0.Recv(1, 3, meshTimeout)
	if err != nil || string(msg) != "late" {
		t.Fatalf("recv over retried link: %q, %v", msg, err)
	}
}

// TestDuplicateHandshakeRejected is the satellite regression for the
// connection leak: a second handshake claiming an already-connected rank
// must fail the dial instead of silently replacing the first connection.
func TestDuplicateHandshakeRejected(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Rank 0 in a 3-rank mesh accepts two handshakes; both will claim rank 2.
	addrs := []string{ln.Addr().String(), "127.0.0.1:1", "127.0.0.1:1"}
	dialErr := make(chan error, 1)
	go func() {
		peer, err := Dial(0, addrs, ln, 2*time.Second)
		if peer != nil {
			peer.Close()
		}
		dialErr <- err
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 2)
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-dialErr:
		if err == nil {
			t.Fatal("duplicate handshake accepted")
		}
		if !strings.Contains(err.Error(), "duplicate handshake") {
			t.Errorf("error does not name the duplicate: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dial still blocked after duplicate handshake")
	}
}

// TestFaultMatrix drives a barrier through every injected failure mode and
// asserts the fail-fast contract: no call ever hangs, and ranks starved or
// cut off by the fault surface errors within their deadline.
func TestFaultMatrix(t *testing.T) {
	const p = 4
	const faultRank = 0 // accepts (and therefore faults) its links to ranks 1..3
	cases := []struct {
		name     string
		inj      func() faultnet.Injector
		deadline time.Duration
		allErr   bool // every rank must error
		survErr  bool // every rank but faultRank must error
		allOK    bool // nobody may error
	}{
		{
			// Rank 0's signals vanish silently: its own barrier "succeeds"
			// (a lossy network lies to the sender) but every other rank
			// must hit its receive deadline.
			name:     "drop",
			inj:      func() faultnet.Injector { return faultnet.DropFrom(0) },
			deadline: 400 * time.Millisecond,
			survErr:  true,
		},
		{
			// Delays shorter than the deadline are absorbed.
			name:     "delay-within-deadline",
			inj:      func() faultnet.Injector { return faultnet.DelayFrom(0, 20*time.Millisecond) },
			deadline: 2 * time.Second,
			allOK:    true,
		},
		{
			// Delays beyond the deadline look like a stalled peer.
			name:     "delay-beyond-deadline",
			inj:      func() faultnet.Injector { return faultnet.DelayFrom(0, 700*time.Millisecond) },
			deadline: 250 * time.Millisecond,
			survErr:  true,
		},
		{
			// A severed connection fails both ends: the sender's write and
			// every reader downstream of the dead link.
			name:     "sever",
			inj:      func() faultnet.Injector { return faultnet.SeverAt(0) },
			deadline: 2 * time.Second,
			allErr:   true,
		},
		{
			// Half a header then EOF: the receiver must diagnose the
			// truncated stream, not wait for the missing bytes.
			name:     "truncate-mid-frame",
			inj:      func() faultnet.Injector { return faultnet.TruncateAt(0, 4) },
			deadline: 2 * time.Second,
			allErr:   true,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			peers := faultMesh(t, p, faultRank, c.inj)
			pl, err := run.NewPlan(sched.Dissemination(p))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = peers[r].Barrier(pl, 0, c.deadline)
				}()
			}
			waitAll(t, &wg, 15*time.Second, c.name)
			for r, e := range errs {
				switch {
				case c.allOK && e != nil:
					t.Errorf("rank %d: unexpected error: %v", r, e)
				case c.allErr && e == nil:
					t.Errorf("rank %d returned nil, want transport error", r)
				case c.survErr && r != faultRank && e == nil:
					t.Errorf("rank %d returned nil despite rank %d's faulty link", r, faultRank)
				}
			}
			for _, pe := range peers {
				pe.Close()
			}
			checkNoReaderLeak(t)
		})
	}
}

// TestSeededChaosNoHangs floods a mesh whose every link carries seeded
// random drop/delay/sever faults. The assertion is liveness, not success:
// every Barrier call returns (value or error) within its deadline, and
// teardown leaks nothing — replayable exactly from the seed.
func TestSeededChaosNoHangs(t *testing.T) {
	const p = 6
	const rounds = 8
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		i := i
		conns := 0
		listeners[i] = &faultnet.Listener{Listener: ln, New: func() faultnet.Injector {
			conns++
			return faultnet.Seeded{
				Seed:     0xC0FFEE ^ uint64(i*31+conns),
				PSever:   0.02,
				PDrop:    0.05,
				PDelay:   0.30,
				MaxDelay: 3 * time.Millisecond,
			}
		}}
		addrs[i] = ln.Addr().String()
	}
	peers := make([]*Peer, p)
	dialErrs := make([]error, p)
	var dial sync.WaitGroup
	for i := 0; i < p; i++ {
		i := i
		dial.Add(1)
		go func() {
			defer dial.Done()
			peers[i], dialErrs[i] = Dial(i, addrs, listeners[i], meshTimeout)
		}()
	}
	waitAll(t, &dial, 15*time.Second, "chaos mesh formation")
	for i, err := range dialErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// A failed peer stays failed; stop at the first error.
				if err := peers[r].Barrier(pl, (i%2)*run.TagSpan, 300*time.Millisecond); err != nil {
					return
				}
			}
		}()
	}
	waitAll(t, &wg, 30*time.Second, "chaos barriers")
	for _, pe := range peers {
		pe.Close()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	checkNoReaderLeak(t)
}
