package netmpi

import (
	"regexp"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// executorShapes are the three meshes the executor runs on: every link
// framed TCP, every link shared memory, and two nodes of shared memory
// joined by TCP.
var executorShapes = []struct {
	name  string
	nodes func(p int) []int
}{
	{"tcp", func(int) []int { return nil }},
	{"shm", oneNode},
	{"mixed", twoNodes},
}

// timedOut is the per-receive deadline error, whoever advanced the program.
var timedOut = regexp.MustCompile(`barrier stage \d+: netmpi: rank \d+ timed out after \S+ waiting for \(src \d+, tag \d+\)$`)

// TestExecutorDeadlineRankNeverEnters: when one rank never enters, every
// other rank's program stalls on a receive the missing rank's entry gates,
// and each fails with the per-receive timeout text no earlier than the
// deadline and, the lazy timer ticking every half deadline, no later than
// twice it.
func TestExecutorDeadlineRankNeverEnters(t *testing.T) {
	const p = 8
	const d = 300 * time.Millisecond
	pl := tunedPlan(t, p)
	for _, tc := range executorShapes {
		t.Run(tc.name, func(t *testing.T) {
			peers := hybridMesh(t, p, tc.nodes(p))
			errs := make([]error, p)
			took := make([]time.Duration, p)
			var wg sync.WaitGroup
			for r := 1; r < p; r++ { // rank 0 never enters
				wg.Add(1)
				go func() {
					defer wg.Done()
					start := time.Now()
					errs[r] = peers[r].Barrier(pl, 0, d)
					took[r] = time.Since(start)
				}()
			}
			waitAll(t, &wg, 10*d, "barriers missing rank 0")
			for r := 1; r < p; r++ {
				if errs[r] == nil || !timedOut.MatchString(errs[r].Error()) {
					t.Errorf("rank %d: got %v, want the per-receive timeout", r, errs[r])
					continue
				}
				if took[r] < d || took[r] > 2*d {
					t.Errorf("rank %d timed out after %v, want within [%v, %v]", r, took[r], d, 2*d)
				}
			}
		})
	}
}

// TestExecutorDeadlineLazyTimer: a mesh that keeps completing barriers for
// ten deadlines never times out. Its one deadline timer per peer fired
// about twenty times meanwhile, found progress each time and re-armed; it
// was never replaced.
func TestExecutorDeadlineLazyTimer(t *testing.T) {
	const p = 8
	const d = 100 * time.Millisecond
	pl := tunedPlan(t, p)
	for _, tc := range executorShapes {
		t.Run(tc.name, func(t *testing.T) {
			peers := hybridMesh(t, p, tc.nodes(p))
			end := time.Now().Add(10 * d)
			errs := make([]error, p)
			calls := make([]int, p)
			var wg sync.WaitGroup
			for r, pe := range peers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Rank 0 decides when to stop and tells the others
					// through the word every barrier folds: the run ends
					// on the same call everywhere.
					for more := true; more; calls[r]++ {
						word := uint32(1)
						if r == 0 && time.Now().After(end) {
							word = 0
						}
						var folded uint32
						if _, folded, errs[r] = pe.execute(pl, (calls[r]%2)*run.TagSpan, d, false, word); errs[r] != nil {
							return
						}
						more = folded == 1
					}
				}()
			}
			waitAll(t, &wg, 100*d, "barriers for ten deadlines")
			for r, pe := range peers {
				if errs[r] != nil {
					t.Fatalf("rank %d, call %d: %v", r, calls[r], errs[r])
				}
				pe.cur.mu.Lock()
				gen := pe.cur.timerGen
				pe.cur.mu.Unlock()
				if gen != 1 {
					t.Errorf("rank %d's deadline timer was replaced %d times, want 0", r, gen-1)
				}
			}
			t.Logf("%d barriers in %v under a %v deadline", calls[0], 10*d, d)
		})
	}
}

// TestExecutorLateSignalIsQueued: a signal that arrives after its program
// timed out finds no step waiting for it and is queued, and what reads that
// (src, tag) next — a Recv, then a program, then a Recv again — reads the
// late signals in the order they were sent.
func TestExecutorLateSignalIsQueued(t *testing.T) {
	const p, tag = 4, 3
	const d = 50 * time.Millisecond
	for _, tc := range executorShapes {
		t.Run(tc.name, func(t *testing.T) {
			peers := hybridMesh(t, p, tc.nodes(p))
			// Rank 1's step waits for ranks 0 and 2; only rank 2 signals.
			if err := peers[2].Send(1, tag, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := peers[1].cur.program([]mpi.Step{{Recvs: []int{0, 2}}}, tag, d, false, nil); err == nil || !timedOut.MatchString(err.Error()) {
				t.Fatalf("step missing rank 0's signal: %v, want the per-receive timeout", err)
			}
			for _, m := range []string{"a", "b", "c"} {
				if err := peers[0].Send(1, tag, []byte(m)); err != nil {
					t.Fatal(err)
				}
			}
			if msg, err := peers[1].Recv(0, tag, meshTimeout); err != nil || string(msg) != "a" {
				t.Fatalf("first Recv after the timeout = %q, %v; want the first late signal", msg, err)
			}
			if _, err := peers[1].cur.program([]mpi.Step{{Recvs: []int{0}}}, tag, meshTimeout, false, nil); err != nil {
				t.Fatalf("program after the timeout: %v", err)
			}
			if msg, err := peers[1].Recv(0, tag, meshTimeout); err != nil || string(msg) != "c" {
				t.Fatalf("Recv after the program = %q, %v; want the third late signal", msg, err)
			}
		})
	}
}

// TestExecutorOneRankManyDeliverers: rank 0 of a two-node mesh is
// delivered to at once by TCP readers and co-located senders — the linear
// barrier's arrival step gathers every rank on it — while ping-pongs on a
// probe tag, a reprobe's traffic, run beside the barriers over both link
// classes, their Recvs taking the rank lock the deliveries take. Under
// -race: every barrier completes, and every ping comes back in order.
func TestExecutorOneRankManyDeliverers(t *testing.T) {
	const p, barriers, pings = 8, 200, 200
	peers := hybridMesh(t, p, twoNodes(p))
	pl, err := run.NewPlan(sched.Linear(p))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < barriers; i++ {
				if err := pe.Barrier(pl, (i%2)*run.TagSpan, meshTimeout); err != nil {
					t.Errorf("rank %d, barrier %d: %v", r, i, err)
					return
				}
			}
		}()
	}
	for _, echo := range []int{1, p - 1} { // rank 0's shm and TCP neighbours
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < pings; i++ {
				if err := peers[0].Send(echo, probeTagBase, []byte{byte(i)}); err != nil {
					t.Errorf("ping %d to rank %d: %v", i, echo, err)
					return
				}
				if msg, err := peers[0].Recv(echo, probeTagBase+1, meshTimeout); err != nil || len(msg) != 1 || msg[0] != byte(i) {
					t.Errorf("pong %d from rank %d = %v, %v", i, echo, msg, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < pings; i++ {
				msg, err := peers[echo].Recv(0, probeTagBase, meshTimeout)
				if err == nil {
					err = peers[echo].Send(0, probeTagBase+1, msg)
				}
				if err != nil {
					t.Errorf("rank %d echoing ping %d: %v", echo, i, err)
					return
				}
			}
		}()
	}
	waitAll(t, &wg, 60*time.Second, "barriers and ping-pongs on rank 0")
}
