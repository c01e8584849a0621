package netmpi

import (
	"regexp"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/run"
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
