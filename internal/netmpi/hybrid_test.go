package netmpi

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/faultnet"
	"topobarrier/internal/perftest"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// hybridMesh spins up a p-rank mesh whose co-located ranks (same node id)
// talk over shared memory. Cleanup closes everything.
func hybridMesh(tb testing.TB, p int, nodes []int, opts ...Option) []*Peer {
	tb.Helper()
	peers, err := HybridMesh(p, nodes, meshTimeout, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { CloseMesh(peers) })
	return peers
}

// twoNodes co-locates the first half of the ranks on node 0 and the second
// half on node 1 — the canonical two-machine job shape.
func twoNodes(p int) []int {
	nodes := make([]int, p)
	for i := p / 2; i < p; i++ {
		nodes[i] = 1
	}
	return nodes
}

// oneNode co-locates every rank: a pure shared-memory mesh (no TCP link
// carries traffic).
func oneNode(p int) []int { return make([]int, p) }

func TestHybridMeshPointToPoint(t *testing.T) {
	// Ranks 0,1 share node 0; ranks 2,3 share node 1. 0→1 is shm, 0→2 tcp.
	peers := hybridMesh(t, 4, []int{0, 0, 1, 1})
	go func() {
		peers[0].Send(1, 7, []byte("intra"))
		peers[0].Send(2, 9, []byte("inter"))
		peers[3].Send(2, 11, nil)
	}()
	if msg, err := peers[1].Recv(0, 7, meshTimeout); err != nil || string(msg) != "intra" {
		t.Fatalf("shm link: %q, %v", msg, err)
	}
	if msg, err := peers[2].Recv(0, 9, meshTimeout); err != nil || string(msg) != "inter" {
		t.Fatalf("tcp link: %q, %v", msg, err)
	}
	if _, err := peers[2].Recv(3, 11, meshTimeout); err != nil {
		t.Fatalf("shm nil payload: %v", err)
	}
}

// TestShmFIFOAndTagMatching mirrors the TCP mailbox contract on the shm
// path: per-link FIFO within a tag, no head-of-line blocking across tags.
func TestShmFIFOAndTagMatching(t *testing.T) {
	peers := hybridMesh(t, 2, oneNode(2))
	go func() {
		for i := 0; i < 10; i++ {
			peers[0].Send(1, 5, []byte{byte(i)})
		}
		peers[0].Send(1, 6, []byte{99})
	}()
	msg, err := peers[1].Recv(0, 6, meshTimeout)
	if err != nil || msg[0] != 99 {
		t.Fatalf("tag matching broken over shm: %v %v", msg, err)
	}
	for i := 0; i < 10; i++ {
		msg, err := peers[1].Recv(0, 5, meshTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if int(msg[0]) != i {
			t.Fatalf("shm FIFO violated: got %d at position %d", msg[0], i)
		}
	}
}

// TestShmSendKeepsCallerOwnership: Send's value semantics must hold on the
// zero-copy-tempting path too — mutating the buffer after Send must not
// change what the receiver reads.
func TestShmSendKeepsCallerOwnership(t *testing.T) {
	peers := hybridMesh(t, 2, oneNode(2))
	buf := []byte("before")
	if err := peers[0].Send(1, 3, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "AFTER!")
	msg, err := peers[1].Recv(0, 3, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "before" {
		t.Fatalf("receiver saw the sender's later mutation: %q", msg)
	}
}

// TestHybridBarrierSemantics is the delay-injection synchronization check
// over a mixed mesh: with rank 5 entering 150ms late, nobody may leave
// before its entry — the barrier property must not depend on which
// transport carried each signal.
func TestHybridBarrierSemantics(t *testing.T) {
	const p = 8
	peers := hybridMesh(t, p, twoNodes(p))
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}
	const delay = 150 * time.Millisecond
	start := time.Now()
	exits := make([]time.Duration, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r == 5 {
				time.Sleep(delay)
			}
			errs[r] = peers[r].Barrier(pl, 0, meshTimeout)
			exits[r] = time.Since(start)
		}()
	}
	waitAll(t, &wg, 15*time.Second, "hybrid barrier")
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if exits[r] < delay {
			t.Fatalf("rank %d left after %v, before the delayed rank entered", r, exits[r])
		}
	}
}

// TestShmKilledPeerMidBarrierFailsFast is the shm analogue of the TCP
// killed-peer acceptance test: on a fully co-located mesh, one rank dying
// mid-barrier must fail every survivor by close propagation — naming
// the shm link — far faster than the deadline, with no goroutine leaks.
func TestShmKilledPeerMidBarrierFailsFast(t *testing.T) {
	const p = 6
	const victim = 2
	peers := hybridMesh(t, p, oneNode(p))
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}

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
	waitAll(t, &warm, 15*time.Second, "warmup shm barrier")
	for r, err := range warmErrs {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}

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
	time.Sleep(30 * time.Millisecond)
	peers[victim].Close()
	waitAll(t, &wg, 15*time.Second, "surviving shm ranks")
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if errs[r] == nil {
			t.Errorf("rank %d completed a barrier rank %d never entered", r, victim)
			continue
		}
		if !strings.Contains(errs[r].Error(), "shm link") || !strings.Contains(errs[r].Error(), "closed") {
			t.Errorf("rank %d error does not name the dead shm link: %v", r, errs[r])
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

// TestSendErrorNamesTransport: after a peer dies, senders on each transport
// must see the class of the dead link in the error — the operator debugging
// a hybrid job needs to know which layer broke.
func TestSendErrorNamesTransport(t *testing.T) {
	cases := []struct {
		name  string
		nodes []int
		want  string
	}{
		{"shm", oneNode(2), "shm"},
		{"tcp", nil, "tcp"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			peers := hybridMesh(t, 2, c.nodes)
			peers[1].Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				err := peers[0].Send(1, 1, []byte("x"))
				if err != nil {
					if !strings.Contains(err.Error(), c.want) {
						t.Fatalf("send error does not name the %s transport: %v", c.want, err)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("sends kept succeeding 5s after the peer died")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestResilientParityAcrossTransports is the acceptance criterion for
// failure-latch parity: the certified-schedule kill test must pass with
// byte-identical semantics whether the victim's links were TCP, shared
// memory, or a mixture — survivors complete, skip exactly the victim, and
// latch both the link and the peer error.
func TestResilientParityAcrossTransports(t *testing.T) {
	const p = 8
	const victim = 3
	s := sched.SymmetricDissemination(p)
	res := analyze.CertifyK(s, 1, analyze.ResilienceOptions{})
	if !res.Certified || !res.Exhaustive {
		t.Fatalf("premise broken: %s not certified 1-resilient", s.Name)
	}
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		nodes []int
	}{
		{"tcp", nil},
		{"shm", oneNode(p)},
		{"hybrid", twoNodes(p)}, // victim 3 has both shm and tcp links
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			peers := hybridMesh(t, p, c.nodes)

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

			const deadline = 30 * time.Second
			var wg sync.WaitGroup
			errs := make([]error, p)
			skipped := make([][]int, p)
			start := time.Now()
			elapsed := make([]time.Duration, p)
			for r := 0; r < p; r++ {
				if r == victim {
					continue
				}
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					skipped[r], errs[r] = peers[r].BarrierResilient(pl, run.TagSpan, deadline)
					elapsed[r] = time.Since(start)
				}()
			}
			time.Sleep(30 * time.Millisecond)
			peers[victim].Close()
			waitAll(t, &wg, 15*time.Second, "resilient survivors")

			union := map[int]bool{}
			for r := 0; r < p; r++ {
				if r == victim {
					continue
				}
				if errs[r] != nil {
					t.Errorf("survivor %d failed a certified-survivable barrier: %v", r, errs[r])
				}
				for _, dead := range skipped[r] {
					if dead != victim {
						t.Errorf("survivor %d skipped healthy rank %d", r, dead)
					}
					union[dead] = true
				}
				if elapsed[r] > 10*time.Second {
					t.Errorf("survivor %d needed %v — resilience should not cost timeout-scale waits", r, elapsed[r])
				}
			}
			if !union[victim] {
				t.Error("no survivor reported skipping the dead rank")
			}
			for r := 0; r < p; r++ {
				if r == victim {
					continue
				}
				if peers[r].LinkErr(victim) != nil && peers[r].Err() == nil {
					t.Errorf("rank %d: link error latched without the peer-level latch", r)
				}
			}
			for _, pe := range peers {
				pe.Close()
			}
			checkNoReaderLeak(t)
		})
	}
}

// delayHybridMesh is delayMesh with co-location: TCP links carry d of
// injected one-way frame latency, shared-memory links carry none — the
// live-mesh stand-in for a real two-node machine where the class gap is
// physical, not scheduler noise.
func delayHybridMesh(tb testing.TB, p int, nodes []int, d time.Duration) []*Peer {
	tb.Helper()
	var opts []Option
	if nodes != nil {
		opts = append(opts, WithColocation(NewShmHub(), nodes))
	}
	return wrappedMesh(tb, p, func(_ int, ln net.Listener) net.Listener {
		return &faultnet.Listener{Listener: ln, New: func() faultnet.Injector { return faultnet.DelayFrom(0, d) }}
	}, opts...)
}

// TestHybridProbeMeasuresClassGap is the drift test of the issue: on a
// hybrid mesh whose TCP links carry realistic latency, ProbeProfile's
// measured O/L matrices must exhibit intra ≪ inter — the on-chip/off-chip
// gap the SSS clustering feeds on — and the profile must identify itself as
// hybrid.
func TestHybridProbeMeasuresClassGap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive probe, skipped in -short")
	}
	const p = 8
	nodes := twoNodes(p)
	peers := delayHybridMesh(t, p, nodes, benchLinkDelay)
	pf, _, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 6, StableK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pf.Platform, "netmpi-hybrid") {
		t.Errorf("hybrid probe platform = %q", pf.Platform)
	}
	maxIntra, minInter := 0.0, -1.0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			cost := pf.O.At(i, j) + pf.L.At(i, j)
			if nodes[i] == nodes[j] {
				if cost > maxIntra {
					maxIntra = cost
				}
			} else if minInter < 0 || cost < minInter {
				minInter = cost
			}
		}
	}
	// The TCP links carry 2×200µs of injected round-trip latency that the shm
	// links do not; a 4× separation is far below the physical gap but far
	// above scheduler noise.
	if minInter < 4*maxIntra {
		t.Errorf("class gap not measured: max intra-node %.1fµs vs min cross-node %.1fµs",
			maxIntra*1e6, minInter*1e6)
	}
	t.Logf("P=%d hybrid probe: intra ≤ %.1fµs, inter ≥ %.1fµs (%.1f×)",
		p, maxIntra*1e6, minInter*1e6, minInter/maxIntra)
}

// TestHybridBarrierSpeedup is the headline acceptance criterion: on a
// co-located P=8 mesh, the tuned plan over the hybrid transport must beat
// the same plan over pure TCP loopback by at least 2×. The bound is lenient
// (the gap is typically much larger) and each mesh gets the best of three
// measurement runs so scheduler noise cannot flake it.
func TestHybridBarrierSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison, skipped in -short")
	}
	if perftest.RaceEnabled {
		t.Skip("race instrumentation inflates atomics far more than syscalls; transport timing is meaningless there")
	}
	const p = 8
	pl := tunedPlan(t, p)
	measure := func(peers []*Peer) time.Duration {
		best := time.Duration(0)
		for attempt := 0; attempt < 3; attempt++ {
			if d := timeEpochLoop(t, peers, pl, 5, 50); attempt == 0 || d < best {
				best = d
			}
		}
		return best
	}
	tcp := measure(hybridMesh(t, p, nil))
	shm := measure(hybridMesh(t, p, oneNode(p)))
	perftest.Floor(t, shm*2 <= tcp, "hybrid barrier %v vs TCP %v — less than the 2× floor", shm, tcp)
	t.Logf("P=%d tuned barrier: tcp %v, hybrid %v (%.1f×)", p, tcp, shm, float64(tcp)/float64(shm))
}
