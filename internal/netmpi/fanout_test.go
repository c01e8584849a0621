package netmpi

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/faultnet"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// rankListener wraps each accepted mesh connection in the injector inj picks
// for the dialling rank, read off the connection's handshake (nil passes
// everything through). faultnet.Listener cannot tell its connections apart;
// this one can, so a test can fault one link of a rank and leave the rest.
type rankListener struct {
	net.Listener
	inj func(src int) faultnet.Injector
}

func (l rankListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(c, hdr); err != nil {
		c.Close()
		return nil, err
	}
	return &replayConn{Conn: faultnet.WrapConn(c, l.inj(int(binary.BigEndian.Uint32(hdr)))), pending: hdr}, nil
}

// replayConn hands the handshake rankListener consumed back to Dial.
type replayConn struct {
	net.Conn
	pending []byte
}

func (c *replayConn) Read(b []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(b, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	return c.Conn.Read(b)
}

// rank0Faulted is a p-rank mesh whose rank 0 writes through inj(src) on its
// link to rank src — rank 0 dials nobody, so it accepts every link.
func rank0Faulted(t *testing.T, p int, inj func(src int) faultnet.Injector, opts ...Option) []*Peer {
	t.Helper()
	return wrappedMesh(t, p, func(i int, ln net.Listener) net.Listener {
		if i != 0 {
			return ln
		}
		return rankListener{Listener: ln, inj: inj}
	}, opts...)
}

// linearPlan compiles linear(p): rank 0's release stage is the fan-out
// 0 → {1, …, p−1}, and it is the only stage in which rank 0 sends.
func linearPlan(t *testing.T, p int) *run.Plan {
	t.Helper()
	pl, err := run.NewPlan(sched.Linear(p))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// planSignals counts the messages one barrier of pl sends.
func planSignals(pl *run.Plan) int64 {
	n := 0
	for r := 0; r < pl.P; r++ {
		for _, st := range pl.RankOps(r) {
			n += len(st.Sends)
		}
	}
	return int64(n)
}

// runAll runs one barrier on every rank, resilient or not, and returns each
// rank's skipped set and error.
func runAll(t *testing.T, peers []*Peer, pl *run.Plan, tagBase int, resilient bool) ([][]int, []error) {
	t.Helper()
	skips, errs := make([][]int, len(peers)), make([]error, len(peers))
	var wg sync.WaitGroup
	for r, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resilient {
				skips[r], errs[r] = pe.BarrierResilient(pl, tagBase, meshTimeout)
			} else {
				errs[r] = pe.Barrier(pl, tagBase, meshTimeout)
			}
		}()
	}
	waitAll(t, &wg, 15*time.Second, "barrier")
	for r, pe := range peers {
		if n := sendsInFlight(pe); n != 0 {
			t.Errorf("rank %d left the barrier with %d sends still in flight", r, n)
		}
	}
	return skips, errs
}

// sendsInFlight is the number of sends of the rank's current step its
// cursor still waits for: 0 once a barrier has returned.
func sendsInFlight(pe *Peer) int {
	pe.cur.mu.Lock()
	defer pe.cur.mu.Unlock()
	return pe.cur.sendLeft
}

// TestFanOutDoesNotQueueBehindAStalledWrite is the send-side head-of-line
// regression: every frame rank 0 writes is held for d, and linear(4)'s
// release stage writes three of them. Posted together they cost one d, where
// one after another they cost three. Frames per barrier stay the plan's
// signals on both executors.
func TestFanOutDoesNotQueueBehindAStalledWrite(t *testing.T) {
	const p = 4
	const d = 30 * time.Millisecond
	pl := linearPlan(t, p)
	for _, resilient := range []bool{false, true} {
		name := "Barrier"
		if resilient {
			name = "BarrierResilient"
		}
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			peers := rank0Faulted(t, p, func(int) faultnet.Injector { return faultnet.DelayFrom(0, d) }, WithTelemetry(reg))
			start := time.Now()
			skips, errs := runAll(t, peers, pl, 0, resilient)
			wall := time.Since(start)
			for r := range peers {
				if errs[r] != nil || len(skips[r]) != 0 {
					t.Fatalf("rank %d: skipped %v, err %v", r, skips[r], errs[r])
				}
			}
			if wall >= 2*d {
				t.Errorf("barrier took %v with every write of rank 0 held %v: its fan-out queued behind one stalled write", wall, d)
			}
			sent := int64(0)
			for metric, v := range reg.Snapshot() {
				if strings.HasPrefix(metric, "netmpi_send_frames_total") {
					sent += v.(int64)
				}
			}
			if want := planSignals(pl); sent != want {
				t.Errorf("sent %d frames, the plan has %d signals", sent, want)
			}
		})
	}
}

// severAfter holds the first frame for the duration, then severs the
// connection.
type severAfter time.Duration

func (d severAfter) Judge(int) faultnet.Action {
	time.Sleep(time.Duration(d))
	return faultnet.Action{Op: faultnet.Sever}
}

// TestLinkWriterFailure severs rank 0's link to rank 1 at its first frame, a
// send linear(4)'s release stage hands to the link writer. On Barrier the
// write error is rank 0's stage error and names the link; on
// BarrierResilient it is a skipped rank with the link latched, and the next
// barrier runs around it. No barrier leaves a completion behind.
func TestLinkWriterFailure(t *testing.T) {
	const p = 4
	pl := linearPlan(t, p)

	t.Run("Barrier", func(t *testing.T) {
		// A severed link poisons the peer, and a send that checks after that
		// is refused, so the sever waits until the other two sends are past
		// their checks. The write to rank 2, also handed off, completes after
		// the failed one: the stage must still wait for it.
		const d = 40 * time.Millisecond
		peers := rank0Faulted(t, p, func(src int) faultnet.Injector {
			switch src {
			case 1:
				return severAfter(d)
			case 2:
				return faultnet.DelayFrom(0, 2*d)
			}
			return nil
		})
		_, errs := runAll(t, peers, pl, 0, false)
		time.Sleep(2 * d)
		if n := sendsInFlight(peers[0]); n != 0 {
			t.Errorf("rank 0's failed stage left %d sends in flight", n)
		}
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "sending to 1 over tcp") ||
			!strings.Contains(errs[0].Error(), "severed") {
			t.Errorf("rank 0: want the severed write to rank 1 as the stage error, got %v", errs[0])
		}
		if errs[1] == nil {
			t.Error("rank 1 completed a barrier whose release to it was severed")
		}
		for r := 2; r < p; r++ {
			if errs[r] != nil {
				t.Errorf("rank %d: %v", r, errs[r])
			}
		}
	})

	t.Run("BarrierResilient", func(t *testing.T) {
		peers := rank0Faulted(t, p, func(src int) faultnet.Injector {
			if src == 1 {
				return faultnet.SeverAt(0)
			}
			return nil
		})
		want := [][]int{{1}, {0}, nil, nil}
		for round := 0; round < 2; round++ {
			skips, errs := runAll(t, peers, pl, round*run.TagSpan, true)
			for r := range peers {
				if errs[r] != nil {
					t.Fatalf("round %d rank %d: %v", round, r, errs[r])
				}
				if !slices.Equal(skips[r], want[r]) {
					t.Errorf("round %d rank %d skipped %v, want %v", round, r, skips[r], want[r])
				}
			}
		}
		if peers[0].LinkErr(1) == nil {
			t.Error("rank 0 did not latch the link whose write failed")
		}
		for _, r := range []int{2, 3} {
			if err := peers[0].LinkErr(r); err != nil {
				t.Errorf("rank 0 latched the healthy link to %d: %v", r, err)
			}
		}
	})
}

// TestCloseDuringDelayedFanOut closes rank 0 while its link writers sit in
// held writes: Close returns once the writes in flight give up, not after
// the receive deadline, every barrier returns, and no link goroutine
// outlives its peer.
func TestCloseDuringDelayedFanOut(t *testing.T) {
	const p = 4
	const d = 100 * time.Millisecond
	pl := linearPlan(t, p)
	peers := rank0Faulted(t, p, func(int) faultnet.Injector { return faultnet.DelayFrom(0, d) })
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = pe.Barrier(pl, 0, 30*time.Second)
		}()
	}
	time.Sleep(d / 2) // the arrivals are undelayed: rank 0 is mid-release
	var closing sync.WaitGroup
	closing.Add(1)
	go func() { defer closing.Done(); peers[0].Close() }()
	waitAll(t, &closing, 2*time.Second, "Close with held writes")
	waitAll(t, &wg, 15*time.Second, "barriers across Close")
	if errs[0] == nil {
		t.Error("rank 0's barrier succeeded across its own Close")
	}
	CloseMesh(peers)
	checkNoReaderLeak(t)
}
