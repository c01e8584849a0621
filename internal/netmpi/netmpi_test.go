package netmpi

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

const meshTimeout = 5 * time.Second

// mesh spins up p in-process ranks over loopback TCP and returns their
// peers. Cleanup closes everything.
func mesh(t *testing.T, p int) []*Peer {
	t.Helper()
	peers, err := LoopbackMesh(p, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseMesh(peers) })
	return peers
}

func TestMeshPointToPoint(t *testing.T) {
	peers := mesh(t, 3)
	go func() {
		peers[0].Send(1, 7, []byte("hello"))
		peers[0].Send(2, 9, nil)
	}()
	msg, err := peers[1].Recv(0, 7, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hello" {
		t.Fatalf("payload = %q", msg)
	}
	if _, err := peers[2].Recv(0, 9, meshTimeout); err != nil {
		t.Fatal(err)
	}
	if peers[0].Rank() != 0 || peers[0].Size() != 3 {
		t.Fatalf("identity wrong")
	}
}

func TestMeshFIFOPerLinkAndTagMatching(t *testing.T) {
	peers := mesh(t, 2)
	go func() {
		for i := 0; i < 10; i++ {
			peers[0].Send(1, 5, []byte{byte(i)})
		}
		peers[0].Send(1, 6, []byte{99})
	}()
	// Tag 6 can be received before the tag-5 backlog is drained.
	msg, err := peers[1].Recv(0, 6, meshTimeout)
	if err != nil || msg[0] != 99 {
		t.Fatalf("tag matching broken: %v %v", msg, err)
	}
	for i := 0; i < 10; i++ {
		msg, err := peers[1].Recv(0, 5, meshTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if int(msg[0]) != i {
			t.Fatalf("FIFO violated: got %d at position %d", msg[0], i)
		}
	}
}

func TestBarrierOverTCP(t *testing.T) {
	const p = 8
	peers := mesh(t, p)
	pl, err := run.NewPlan(sched.Tree(p))
	if err != nil {
		t.Fatal(err)
	}
	// Delay-injection validation with wall-clock time: rank 3 arrives
	// 150ms late; nobody may leave before rank 3's entry.
	const delay = 150 * time.Millisecond
	start := time.Now()
	exits := make([]time.Duration, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r == 3 {
				time.Sleep(delay)
			}
			errs[r] = peers[r].Barrier(pl, 0, meshTimeout)
			exits[r] = time.Since(start)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, x := range exits {
		if x < delay {
			t.Fatalf("rank %d left the barrier after %v, before the delayed rank entered", r, x)
		}
	}
}

func TestTunedPlanRunsOverTCP(t *testing.T) {
	// A barrier tuned in the simulator executes unchanged on the real
	// transport: the plan is pure data.
	const p = 6
	pl := tunedPlan(t, p)
	if d := timeEpochLoop(t, mesh(t, p), pl, 2, 20); d <= 0 || d > time.Second {
		t.Fatalf("measured %v per barrier", d)
	}
}

func TestDialValidation(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Dial(5, []string{ln.Addr().String()}, ln, time.Second); err == nil {
		t.Fatalf("bad rank accepted")
	}
	// Dialing an address nobody answers times out.
	if _, err := Dial(1, []string{"127.0.0.1:1", ln.Addr().String()}, ln, 200*time.Millisecond); err == nil {
		t.Fatalf("unreachable peer accepted")
	}
}

func TestSendRecvValidation(t *testing.T) {
	peers := mesh(t, 2)
	if err := peers[0].Send(0, 0, nil); err == nil {
		t.Fatalf("self send accepted")
	}
	if err := peers[0].Send(5, 0, nil); err == nil {
		t.Fatalf("invalid destination accepted")
	}
	if _, err := peers[0].Recv(0, 0, time.Millisecond); err == nil {
		t.Fatalf("self receive accepted")
	}
	if _, err := peers[0].Recv(1, 42, 50*time.Millisecond); err == nil {
		t.Fatalf("timeout not reported")
	}
	pl, err := run.NewPlan(sched.Tree(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Barrier(pl, 0, time.Second); err == nil {
		t.Fatalf("size-mismatched plan accepted")
	}
}

// TestTagsOutsideTheFrameAreRefused: a frame carries a signed 32-bit tag,
// so a wider tag would alias another on TCP while a shared-memory mailbox
// kept it apart. Both transports refuse it before anything is written.
func TestTagsOutsideTheFrameAreRefused(t *testing.T) {
	const wide = 1<<32 | 5
	pl, err := run.NewPlan(sched.Tree(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		peers func(*testing.T) []*Peer
	}{
		{"tcp", func(t *testing.T) []*Peer { return mesh(t, 2) }},
		{"shm", func(t *testing.T) []*Peer { return hybridMesh(t, 2, oneNode(2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers := tc.peers(t)
			if err := peers[0].Send(1, wide, []byte("wide")); err == nil {
				t.Errorf("Send under tag %d accepted", wide)
			}
			if err := peers[0].Stage(wide, nil, []int{1}); err == nil {
				t.Errorf("Stage under tag %d accepted", wide)
			}
			if _, err := peers[1].Recv(0, wide, meshTimeout); err == nil {
				t.Errorf("Recv under tag %d accepted", wide)
			}
			for _, base := range []int{wide, math.MaxInt32 - pl.Stages + 1, math.MinInt32 - 1} {
				if err := peers[0].Barrier(pl, base, time.Second); err == nil {
					t.Errorf("Barrier at tag base %d accepted", base)
				}
				if _, err := peers[0].BarrierResilient(pl, base, time.Second); err == nil {
					t.Errorf("BarrierResilient at tag base %d accepted", base)
				}
			}
			// Nothing reached the wire: tag 5 holds only its own message.
			if err := peers[0].Send(1, 5, []byte("five")); err != nil {
				t.Fatal(err)
			}
			if msg, err := peers[1].Recv(0, 5, meshTimeout); err != nil || string(msg) != "five" {
				t.Fatalf("tag 5 received %q, %v", msg, err)
			}
		})
	}
}

// tunedPlan builds a simulator-tuned plan without importing the heavy core
// pipeline here: a hierarchical hybrid shape, verified.
func tunedPlan(t testing.TB, p int) *run.Plan {
	t.Helper()
	// Two groups with linear local phases and a tree across representatives:
	// structurally identical to composer output.
	half := p / 2
	groupA := make([]int, half)
	groupB := make([]int, p-half)
	for i := range groupA {
		groupA[i] = i
	}
	for i := range groupB {
		groupB[i] = half + i
	}
	arr := sched.MergeEarly("children", p,
		sched.LinearArrival(len(groupA)).Lift(p, groupA),
		sched.LinearArrival(len(groupB)).Lift(p, groupB),
	)
	root := sched.TreeArrival(2).Lift(p, []int{0, half})
	full := sched.New(fmt.Sprintf("hybrid-test(%d)", p), p)
	full.Concat(arr).Concat(root)
	full.Concat(full.Clone().ReverseTransposed())
	pl, err := run.NewPlan(full)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
