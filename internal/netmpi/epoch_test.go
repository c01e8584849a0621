package netmpi

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

func mustPlan(t *testing.T, s *sched.Schedule) *run.Plan {
	t.Helper()
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// runEpochLoop drives every rank's runner through iters collective barriers,
// returning the first error of each rank.
func runEpochLoop(t *testing.T, runners []*EpochRunner, iters int, deadline time.Duration) []error {
	t.Helper()
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				if err := r.Barrier(deadline); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	waitAll(t, &wg, 30*time.Second, "epoch barrier loop")
	return errs
}

// timeEpochLoop runs warmup untimed, then iters timed collective barriers
// of pl through a fresh epoch store's runners, and returns the mesh's wall
// time per timed barrier. Any rank error fails the test.
func timeEpochLoop(t *testing.T, peers []*Peer, pl *run.Plan, warmup, iters int) time.Duration {
	t.Helper()
	eps, err := NewEpochs(pl)
	if err != nil {
		t.Fatal(err)
	}
	runners := newRunners(t, peers, eps)
	loop := func(n int) {
		for r, err := range runEpochLoop(t, runners, n, meshTimeout) {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	loop(warmup)
	start := time.Now()
	loop(iters)
	return time.Since(start) / time.Duration(iters)
}

func newRunners(t testing.TB, peers []*Peer, eps *Epochs) []*EpochRunner {
	t.Helper()
	runners := make([]*EpochRunner, len(peers))
	for i, pe := range peers {
		r, err := NewEpochRunner(pe, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	return runners
}

// TestEpochSwapMidRun proposes a new plan between two runs of barriers and
// checks that every rank switches to it exactly once, with zero failed or
// blocked barriers, and that all ranks agree on the final version.
func TestEpochSwapMidRun(t *testing.T) {
	const p = 6
	peers, err := LoopbackMesh(p, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)

	planA := mustPlan(t, sched.Dissemination(p))
	planB := mustPlan(t, sched.SymmetricDissemination(p))
	eps, err := NewEpochs(planA)
	if err != nil {
		t.Fatal(err)
	}
	runners := newRunners(t, peers, eps)

	// Warm phase on version 0.
	for _, err := range runEpochLoop(t, runners, 10, 5*time.Second) {
		if err != nil {
			t.Fatalf("pre-swap barrier failed: %v", err)
		}
	}
	for i, r := range runners {
		if r.Version() != 0 || r.Swaps() != 0 {
			t.Fatalf("rank %d moved off version 0 with nothing proposed: version=%d swaps=%d", i, r.Version(), r.Swaps())
		}
	}

	v, err := eps.Propose(planB)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("proposed version = %d, want 1", v)
	}

	// The first call carries the proposal, the second runs it, the rest
	// must run it clean.
	for _, err := range runEpochLoop(t, runners, 20, 5*time.Second) {
		if err != nil {
			t.Fatalf("barrier across the swap failed: %v", err)
		}
	}
	for i, r := range runners {
		if r.Version() != 1 {
			t.Fatalf("rank %d still on version %d after the swap window", i, r.Version())
		}
		if r.Swaps() != 1 {
			t.Fatalf("rank %d performed %d swaps, want exactly 1", i, r.Swaps())
		}
		if r.Plan() != planB {
			t.Fatalf("rank %d is not executing the proposed plan", i)
		}
	}
}

// TestEpochVersionJump proposes two plans between the same two calls: the
// runners must jump straight to the newest agreed version in one switch.
func TestEpochVersionJump(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)

	eps, err := NewEpochs(mustPlan(t, sched.Dissemination(p)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eps.Propose(mustPlan(t, sched.Linear(p))); err != nil {
		t.Fatal(err)
	}
	if _, err := eps.Propose(mustPlan(t, sched.SymmetricDissemination(p))); err != nil {
		t.Fatal(err)
	}
	// Runners constructed after the proposals still start on the latest
	// version — the store's contract.
	runners := newRunners(t, peers, eps)
	for i, r := range runners {
		if r.Version() != 2 {
			t.Fatalf("rank %d started on version %d, want latest (2)", i, r.Version())
		}
	}

	// Now wind back the clock: fresh mesh, runners built before proposals.
	peers2, err := LoopbackMesh(p, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers2)
	eps2, err := NewEpochs(mustPlan(t, sched.Dissemination(p)))
	if err != nil {
		t.Fatal(err)
	}
	runners2 := newRunners(t, peers2, eps2)
	if _, err := eps2.Propose(mustPlan(t, sched.Linear(p))); err != nil {
		t.Fatal(err)
	}
	if _, err := eps2.Propose(mustPlan(t, sched.SymmetricDissemination(p))); err != nil {
		t.Fatal(err)
	}
	for _, err := range runEpochLoop(t, runners2, 17, 5*time.Second) {
		if err != nil {
			t.Fatalf("barrier across the double swap failed: %v", err)
		}
	}
	for i, r := range runners2 {
		if r.Version() != 2 {
			t.Fatalf("rank %d on version %d, want 2", i, r.Version())
		}
		if r.Swaps() != 1 {
			t.Fatalf("rank %d took %d swaps for a version jump, want a single switch", i, r.Swaps())
		}
	}
}

// TestEpochsRejectsMismatchedPlan pins the store's and the runner's
// validation.
func TestEpochsRejectsMismatchedPlan(t *testing.T) {
	eps, err := NewEpochs(mustPlan(t, sched.Dissemination(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eps.Propose(mustPlan(t, sched.Dissemination(8))); err == nil {
		t.Fatal("an 8-rank plan was accepted for a 4-rank mesh")
	}
	if _, err := eps.Propose(nil); err == nil {
		t.Fatal("a nil plan was accepted")
	}
	if _, err := NewEpochs(nil); err == nil {
		t.Fatal("a nil initial plan was accepted")
	}
	if _, err := eps.Plan(7); err == nil {
		t.Fatal("an unknown version was served")
	}
	// The runner's trailing argument is not an option: anything but 0 is
	// refused.
	peers := hybridMesh(t, 4, nil)
	for _, arg := range []int{-1, 4, 8} {
		if _, err := NewEpochRunner(peers[0], eps, arg); err == nil {
			t.Errorf("NewEpochRunner accepted third argument %d", arg)
		}
	}
}

// TestEpochTagWindows pins the tag-space partition from the frames a runner
// actually sends: consecutive calls use different windows, across a plan
// switch too, and every data tag lies in [0, 2·run.TagSpan), below the
// probe region.
func TestEpochTagWindows(t *testing.T) {
	const p = 4
	if 2*run.TagSpan > probeTagBase {
		t.Fatalf("data region [0, %d) overlaps the probe region at %d", 2*run.TagSpan, probeTagBase)
	}
	tr := telemetry.NewTracer()
	peers, err := LoopbackMesh(p, meshTimeout, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	eps, err := NewEpochs(mustPlan(t, sched.Dissemination(p)))
	if err != nil {
		t.Fatal(err)
	}
	runners := newRunners(t, peers, eps)
	prev := -1
	for call := 0; call < 6; call++ {
		if call == 1 {
			if _, err := eps.Propose(mustPlan(t, sched.Linear(p))); err != nil {
				t.Fatal(err)
			}
		}
		for _, err := range runEpochLoop(t, runners, 1, 5*time.Second) {
			if err != nil {
				t.Fatalf("call %d: %v", call, err)
			}
		}
		window := -1
		for _, ev := range tr.Take() {
			if !strings.HasPrefix(ev.Name, "barrier.send:") {
				continue
			}
			if ev.Tag < 0 || ev.Tag >= 2*run.TagSpan {
				t.Fatalf("call %d sent tag %d outside the data region [0, %d)", call, ev.Tag, 2*run.TagSpan)
			}
			if w := ev.Tag / run.TagSpan; window == -1 {
				window = w
			} else if w != window {
				t.Fatalf("call %d spans windows %d and %d", call, window, w)
			}
		}
		if window == -1 {
			t.Fatalf("call %d sent nothing", call)
		}
		if window == prev {
			t.Fatalf("calls %d and %d share window %d", call-1, call, window)
		}
		prev = window
	}
	if runners[0].Version() != 1 {
		t.Fatalf("runner on version %d after the switch, want 1", runners[0].Version())
	}
}

// TestEpochSwapEveryCall proposes a new plan between every pair of calls,
// cycling three plans of different depths: each proposal must be installed
// exactly one call after the call that carried it, on every rank at once,
// and back-to-back switches must never break the two-window reuse.
func TestEpochSwapEveryCall(t *testing.T) {
	const p, calls = 6, 18
	for _, tc := range []struct {
		name  string
		nodes []int
	}{{"tcp", nil}, {"mixed", twoNodes(p)}} {
		t.Run(tc.name, func(t *testing.T) {
			peers := hybridMesh(t, p, tc.nodes)
			cycle := []*run.Plan{
				mustPlan(t, sched.Dissemination(p)),
				mustPlan(t, sched.Linear(p)),
				tunedPlan(t, p),
			}
			eps, err := NewEpochs(cycle[0])
			if err != nil {
				t.Fatal(err)
			}
			runners := newRunners(t, peers, eps)
			for call := 0; call < calls; call++ {
				v, err := eps.Propose(cycle[(call+1)%len(cycle)])
				if err != nil {
					t.Fatal(err)
				}
				if v != call+1 {
					t.Fatalf("proposal before call %d got version %d", call, v)
				}
				for i, err := range runEpochLoop(t, runners, 1, 5*time.Second) {
					if err != nil {
						t.Fatalf("call %d: rank %d: %v", call, i, err)
					}
				}
				// Call c carried version c+1 and ran version c, the one the
				// proposal before call c-1 made.
				for i, r := range runners {
					if r.Version() != call || r.Swaps() != call || r.Plan() != cycle[call%len(cycle)] {
						t.Fatalf("after call %d rank %d runs version %d (%d swaps), want %d",
							call, i, r.Version(), r.Swaps(), call)
					}
				}
			}
		})
	}
}

// foldOnce runs pl once on every peer through the shared stage loop, rank r
// entering with words[r], and returns the word each rank left with.
func foldOnce(t *testing.T, peers []*Peer, pl *run.Plan, tagBase int, words []uint32) []uint32 {
	t.Helper()
	got := make([]uint32, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i], errs[i] = pe.execute(pl, tagBase, 5*time.Second, false, words[i])
		}()
	}
	waitAll(t, &wg, 30*time.Second, pl.Name)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: rank %d: %v", pl.Name, i, err)
		}
	}
	return got
}

// dropSignal returns pl without the signal src → dst in stage, both ends.
func dropSignal(t *testing.T, pl *run.Plan, stage, src, dst int) *run.Plan {
	t.Helper()
	ops := make([][]mpi.Step, pl.P)
	for r := range ops {
		for _, op := range pl.RankOps(r) {
			if op.Tag == stage && r == src {
				op.Sends = slices.DeleteFunc(slices.Clone(op.Sends), func(d int) bool { return d == dst })
			}
			if op.Tag == stage && r == dst {
				op.Recvs = slices.DeleteFunc(slices.Clone(op.Recvs), func(s int) bool { return s == src })
			}
			ops[r] = append(ops[r], op)
		}
	}
	out, err := run.PlanFromOps(pl.Name+"-dropped", pl.P, pl.Stages, ops)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEpochAgreementEveryBuilder drives the shared stage loop with a
// distinct entry word per rank over every schedule builder, on a TCP and a
// two-node mixed mesh: every rank must leave with the global minimum, the
// closure argument EpochRunner rests on. A linear plan missing one release
// signal is no barrier, and there some rank must miss the minimum.
func TestEpochAgreementEveryBuilder(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for _, mesh := range []struct {
			name  string
			nodes []int
		}{{"tcp", nil}, {"mixed", twoNodes(p)}} {
			t.Run(fmt.Sprintf("p%d-%s", p, mesh.name), func(t *testing.T) {
				peers := hybridMesh(t, p, mesh.nodes)
				plans := []*run.Plan{
					mustPlan(t, sched.Linear(p)),
					mustPlan(t, sched.Tree(p)),
					mustPlan(t, sched.Dissemination(p)),
					mustPlan(t, sched.Ring(p)),
					mustPlan(t, sched.SymmetricDissemination(p)),
					tunedPlan(t, p),
				}
				words := make([]uint32, p)
				for k, pl := range plans {
					for r := range words {
						words[r] = uint32(10 + (r+k)%p) // the minimum moves with k
					}
					for r, got := range foldOnce(t, peers, pl, (k%2)*run.TagSpan, words) {
						if got != 10 {
							t.Errorf("%s: rank %d left with %d, want the global minimum 10", pl.Name, r, got)
						}
					}
				}

				// Linear's last stage is the root's release to every rank;
				// without 0 → p-1, rank p-1 hears from nobody.
				linear := plans[0]
				broken := dropSignal(t, linear, linear.Stages-1, 0, p-1)
				for r := range words {
					words[r] = uint32(10 + r)
				}
				missed := false
				for _, got := range foldOnce(t, peers, broken, 0, words) {
					missed = missed || got != 10
				}
				if !missed {
					t.Fatalf("%s: every rank saw the minimum without a barrier", broken.Name)
				}
			})
		}
	}
}
