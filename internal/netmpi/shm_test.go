package netmpi

import (
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// TestShmLinkFIFOInterleaved: per-(src, tag) FIFO on a shared-memory link
// with payload-carrying and zero-byte messages interleaved over two tags —
// the sender writes straight into the receiver's mailboxes, so the order a
// receiver sees is the order of the puts.
func TestShmLinkFIFOInterleaved(t *testing.T) {
	peers := hybridMesh(t, 2, oneNode(2))
	const n = 200
	payload := func(tag, i int) []byte {
		if (i+tag)%3 == 0 {
			return nil // zero-byte signal between payloads
		}
		return []byte{byte(tag), byte(i), byte(i >> 8)}
	}
	go func() {
		for i := 0; i < n; i++ {
			for _, tag := range []int{7, 8} {
				if err := peers[0].Send(1, tag, payload(tag, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for _, tag := range []int{8, 7} { // drain one tag fully before the other
		for i := 0; i < n; i++ {
			msg, err := peers[1].Recv(0, tag, meshTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if want := payload(tag, i); string(msg) != string(want) {
				t.Fatalf("tag %d position %d: got %v, want %v", tag, i, msg, want)
			}
		}
	}
}

// TestShmSendBeforeDial: the segment, not the receiving Peer, owns the
// inbox, so a message sent before the destination has even dialled waits
// there and is received afterwards.
func TestShmSendBeforeDial(t *testing.T) {
	hub, nodes := NewShmHub(), oneNode(2)
	addrs := make([]string, 2)
	listeners := make([]net.Listener, 2)
	for i := range listeners {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	early, err := Dial(0, addrs, listeners[0], meshTimeout, WithColocation(hub, nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	if err := early.Send(1, 9, []byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := early.Send(1, 9, nil); err != nil {
		t.Fatal(err)
	}
	late, err := Dial(1, addrs, listeners[1], meshTimeout, WithColocation(hub, nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if msg, err := late.Recv(0, 9, meshTimeout); err != nil || string(msg) != "early" {
		t.Fatalf("first pre-dial message: %q, %v", msg, err)
	}
	if msg, err := late.Recv(0, 9, meshTimeout); err != nil || len(msg) != 0 {
		t.Fatalf("second pre-dial message: %q, %v", msg, err)
	}
}

// TestShmCloseDeliversThenLatches pins the close protocol: the closing peer
// latches its co-located consumer's failure directly. Every blocked receive
// flavour wakes at once with the shm "peer exited" error (the resilient one
// reports the link skipped), all N messages sent before the Close stay
// readable afterwards, and only then does a receive report the failure.
func TestShmCloseDeliversThenLatches(t *testing.T) {
	peers := hybridMesh(t, 2, oneNode(2))
	const wantErr = "shm link from rank 0 closed (peer exited or crashed)"

	var wg sync.WaitGroup
	var recvErr, resErr error
	var resSkipped bool
	wg.Add(2)
	go func() { defer wg.Done(); _, recvErr = peers[1].Recv(0, 100, 0) }()
	go func() {
		defer wg.Done()
		var skipped []int
		skipped, resErr = peers[1].cur.program([]mpi.Step{{Recvs: []int{0}}}, 102, 30*time.Second, true, nil)
		resSkipped = slices.Equal(skipped, []int{0})
	}()
	time.Sleep(20 * time.Millisecond) // let the two park; the outcome is the same if one has not

	const n = 50
	for i := 0; i < n; i++ {
		if err := peers[0].Send(1, 5, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	peers[0].Close()
	waitAll(t, &wg, 5*time.Second, "receivers blocked on a closed shm link")
	if recvErr == nil || !strings.Contains(recvErr.Error(), wantErr) {
		t.Errorf("Recv woke with %v, want %q", recvErr, wantErr)
	}
	if resErr != nil || !resSkipped {
		t.Errorf("resilient receive = (skipped %v, %v), want the dead link skipped", resSkipped, resErr)
	}
	if err := peers[1].LinkErr(0); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("link latch = %v, want %q", err, wantErr)
	}
	for i := 0; i < n; i++ {
		msg, err := peers[1].Recv(0, 5, meshTimeout)
		if err != nil || len(msg) != 1 || int(msg[0]) != i {
			t.Fatalf("message %d of %d sent before the close: %v, %v", i, n, msg, err)
		}
	}
	if _, err := peers[1].Recv(0, 5, meshTimeout); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("receive past the delivered mail = %v, want %q", err, wantErr)
	}
}

// TestMailboxStaleTokenStress: a take that finds its message without parking
// (the yield phase) leaves the wake-up token of that put in the channel. The
// stale token must never stand in for a message — no loss, no duplicate, no
// lost wake-up — however puts, unparked takes and parks interleave.
func TestMailboxStaleTokenStress(t *testing.T) {
	const n = 20000
	b := &mailbox{mu: new(sync.Mutex), avail: make(chan struct{}, 1)}
	go func() {
		rng := rand.New(rand.NewSource(1))
		var w worklist // no program waits on b: nothing is ever queued on it
		for i := 0; i < n; i++ {
			b.put(mail{[]byte{byte(i), byte(i >> 8), byte(i >> 16)}, uint32(i)}, &w)
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
	}()
	rng := rand.New(rand.NewSource(2))
	for want := 0; want < n; {
		msg, ok := b.take()
		switch {
		case ok:
		case rng.Intn(2) == 0:
			runtime.Gosched() // the yield phase: re-check without touching avail
			continue
		default:
			if msg, ok = b.park(10*time.Second, nil); !ok {
				t.Fatalf("parked at message %d of %d and never woke: lost wake-up", want, n)
			}
		}
		if got := int(msg.payload[0]) | int(msg.payload[1])<<8 | int(msg.payload[2])<<16; got != want || msg.word != uint32(want) {
			t.Fatalf("took message %d (word %d), want %d", got, msg.word, want)
		}
		want++
	}
	if msg, ok := b.take(); ok {
		t.Fatalf("message %v left after all %d were taken", msg, n)
	}
}

// TestShmMeshOwnsNoGoroutines: shared-memory links own no goroutine, so a
// fully co-located mesh is pure data — forming it, running barriers on it
// and closing it leave the goroutine count where it was.
func TestShmMeshOwnsNoGoroutines(t *testing.T) {
	const p = 8
	settle := func(when string, baseline int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines, baseline %d:\n%s", when, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()
	peers, err := HybridMesh(p, oneNode(p), meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	settle("after dial", baseline)
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pe.Barrier(pl, 0, meshTimeout); err != nil {
				t.Error(err)
			}
		}()
	}
	waitAll(t, &wg, 15*time.Second, "barrier on the co-located mesh")
	CloseMesh(peers)
	settle("after CloseMesh", baseline)
}
