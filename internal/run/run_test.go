package run

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/mpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func testWorld(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	spec := topo.Spec{Name: "run-test", Nodes: 4, SocketsPerNode: 1, CoresPerSocket: 8}
	params := fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 2e-6, Beta: 0.4e-9, Lambda: 0.3e-6},
			topo.CrossNode:  {Alpha: 55e-6, Beta: 8e-9, Lambda: 8e-6},
		},
		SelfOverhead: 1e-6,
		Seed:         seed,
	}
	f, err := fabric.New(spec, topo.RoundRobin{}, p, params)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

// plan compiles a schedule the test knows to be a barrier.
func plan(t testing.TB, s *sched.Schedule) Func {
	t.Helper()
	pl, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl.Func()
}

func TestPlanSynchronises(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13} {
		for _, s := range []*sched.Schedule{sched.Linear(p), sched.Dissemination(p), sched.Tree(p)} {
			if err := Validate(testWorld(t, p, 1), plan(t, s), 0.5, nil); err != nil {
				t.Fatalf("%s at p=%d: %v", s.Name, p, err)
			}
		}
	}
}

func TestValidateCatchesBrokenPattern(t *testing.T) {
	// Disconnect rank 3 completely: it exits immediately and nobody waits
	// for it, so delaying rank 3 must reveal the failure.
	p := 4
	s := sched.Linear(p)
	s.Stages[0].Set(3, 0, false)
	s.Stages[1].Set(0, 3, false)
	err := Validate(testWorld(t, p, 1), compile(s).Func(), 0.5, []int{3})
	if err == nil || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("broken pattern passed validation: %v", err)
	}
}

func TestValidateArgumentChecks(t *testing.T) {
	w := testWorld(t, 2, 1)
	f := plan(t, sched.Linear(2))
	if err := Validate(w, f, 0, nil); err == nil {
		t.Fatalf("zero delay accepted")
	}
	if err := Validate(w, f, 1, []int{5}); err == nil {
		t.Fatalf("out-of-range delay rank accepted")
	}
	// Every delay rank is checked before any barrier runs.
	calls := 0
	counted := func(rank, p int) []mpi.Step { calls++; return f(rank, p) }
	if err := Validate(w, counted, 1, []int{0, 5}); err == nil {
		t.Fatalf("out-of-range delay rank accepted after a valid one")
	}
	if calls != 0 {
		t.Fatalf("barrier ran %d times before the out-of-range delay rank was rejected", calls)
	}
}

func TestSingleRankBarrier(t *testing.T) {
	s := sched.Tree(1)
	m, err := Measure(testWorld(t, 1, 1), plan(t, s), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean != 0 {
		t.Fatalf("1-rank barrier cost %g", m.Mean)
	}
}

func TestMeasureBasics(t *testing.T) {
	p := 16
	m, err := Measure(testWorld(t, p, 2), plan(t, sched.Tree(p)), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean <= 0 {
		t.Fatalf("mean = %g", m.Mean)
	}
	if m.Iters != 5 || m.Warmup != 2 {
		t.Fatalf("bookkeeping wrong: %+v", m)
	}
	// A 16-rank barrier crossing 55µs links a couple of times must cost tens
	// to hundreds of µs, not seconds.
	if m.Mean < 10e-6 || m.Mean > 5e-3 {
		t.Fatalf("mean = %g implausible", m.Mean)
	}
}

func TestMeasureRejectsBadArgs(t *testing.T) {
	w := testWorld(t, 2, 1)
	f := plan(t, sched.Linear(2))
	if _, err := Measure(w, f, 0, 0); err == nil {
		t.Fatalf("zero iters accepted")
	}
	if _, err := Measure(w, f, -1, 1); err == nil {
		t.Fatalf("negative warmup accepted")
	}
}

func TestMeasuredOrderingLinearVsTree(t *testing.T) {
	// At p=32 spanning 4 nodes, the serialized linear barrier must be the
	// slowest of the three classic algorithms (Figures 5-6).
	p := 32
	lin, err := Measure(testWorld(t, p, 3), plan(t, sched.Linear(p)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Measure(testWorld(t, p, 3), plan(t, sched.Tree(p)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Mean >= lin.Mean {
		t.Fatalf("tree (%g) not faster than linear (%g)", tree.Mean, lin.Mean)
	}
}

func TestNewPlanRejectsNonBarrier(t *testing.T) {
	s := sched.LinearArrival(4) // arrival only: not a barrier
	if _, err := NewPlan(s); err == nil {
		t.Fatalf("non-barrier compiled")
	}
	bad := sched.New("self", 3)
	m := sched.Linear(3).Stages[0].Clone()
	m.Set(1, 1, true)
	bad.AddStage(m)
	if _, err := NewPlan(bad); err == nil {
		t.Fatalf("invalid schedule compiled")
	}
}

func TestPlanEmptyStageElimination(t *testing.T) {
	lin := sched.Linear(4)
	s := sched.New("holey-linear", 4)
	s.AddStage(lin.Stages[0])
	s.AddStage(mat.NewBool(4)) // no-op stage
	s.AddStage(lin.Stages[1])
	pl, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stages != 2 {
		t.Fatalf("empty stage not eliminated: %d stages", pl.Stages)
	}
	if err := Validate(testWorld(t, 4, 1), pl.Func(), 0.25, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferDeliversPayloadPattern(t *testing.T) {
	// A flat broadcast carrying 1 MB: every leaf must wait for the root's
	// payload, so transfer time must reflect the payload size.
	p := 6
	bcast := compile(sched.LinearArrival(p).ReverseTransposed())
	w := testWorld(t, p, 1)
	// The plan's program sends zero-byte signals; the payload copies carry
	// bytes on every send.
	withPayload := func(bytes int) []mpi.Program {
		progs := bcast.Func().Programs(p)
		for r := range progs {
			progs[r].Steps = slices.Clone(progs[r].Steps)
			for k := range progs[r].Steps {
				progs[r].Steps[k].Bytes = bytes
			}
		}
		return progs
	}
	small, err := w.Run(withPayload(0))
	if err != nil {
		t.Fatal(err)
	}
	big, err := w.Run(withPayload(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("payload size has no cost: %g vs %g", big, small)
	}
}

// TestMisSizedPlanPanics: a plan runs only on a world of its own size, in
// both directions, with the message every executor uses for the mismatch.
func TestMisSizedPlanPanics(t *testing.T) {
	for _, c := range []struct{ plan, world int }{{4, 8}, {8, 4}} {
		pl, err := NewPlan(sched.Dissemination(c.plan))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("run: %d-rank plan on %d-rank world", c.plan, c.world)
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%d-rank plan on %d ranks: panic %v, want %q", c.plan, c.world, got, want)
				}
			}()
			_, _ = Measure(testWorld(t, c.world, 1), pl.Func(), 0, 1)
		}()
	}
}

// A plan with one send removed deadlocks on the simulator, and the error
// names the receiver left waiting, its stage and the sender that never sent.
func TestMissingSendNamesTheStuckReceiver(t *testing.T) {
	full := compile(sched.Linear(4))
	ops := make([][]mpi.Step, full.P)
	for r := range ops {
		ops[r] = slices.Clone(full.RankOps(r))
	}
	ops[2][0].Sends = nil // rank 2's arrival signal to rank 0, stage 0
	pl, err := PlanFromOps("linear-minus-one", full.P, full.Stages, ops)
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(testWorld(t, full.P, 1), pl.Func(), 0.5, []int{1})
	want := "rank 0 step 0 (tag 0) waits for sends from [2]"
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want a deadlock naming %q", err, want)
	}
}

// Measure repeats one program per rank, so timing 1 000 barriers allocates
// exactly what timing 10 does.
func TestMeasureAllocsIndependentOfIters(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	w := testWorld(t, 32, 1)
	b := plan(t, sched.Dissemination(32))
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Measure(w, b, 2, iters); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Errorf("10 barriers allocate %.0f times, 1 000 allocate %.0f", few, many)
	}
}

// A plan's program is repeated in place, so once a run's queue and match
// lists have reached their working size a barrier allocates nothing: N and 2N barriers inside one World.Run cost the same
// (testWorld is noise-free, so the count is exact).
func TestExecuteAllocsIndependentOfBarrierCount(t *testing.T) {
	w := testWorld(t, 32, 1)
	for _, s := range []*sched.Schedule{sched.Tree(32), sched.Dissemination(32)} {
		pl, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		perftest.SteadyAllocs(t, s.Name, 40, func(iters int) {
			if _, err := Measure(w, pl.Func(), 0, iters); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Validate runs one World.Run per delayed rank, and the World keeps its run
// state between Runs, so validating with 2n delayed ranks allocates exactly
// as often as with n (testWorld is noise-free).
func TestValidateAllocsIndependentOfDelayedRanks(t *testing.T) {
	const p = 16
	w := testWorld(t, p, 1)
	b := plan(t, sched.Dissemination(p))
	perftest.SteadyAllocs(t, "Validate", p, func(n int) {
		delayed := make([]int, n)
		for i := range delayed {
			delayed[i] = i % p
		}
		if err := Validate(w, b, 1e-4, delayed); err != nil {
			t.Fatal(err)
		}
	})
}

// A plan's programs are read-only once compiled, so one Plan may run on
// several Worlds at once: four noisy Worlds measuring and validating one
// shared plan on four goroutines (clean under -race) each measure exactly
// what they measure alone.
func TestSharedPlanRunsOnSeveralWorlds(t *testing.T) {
	const p, worlds = 16, 4
	pl, err := NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}
	job := func(seed uint64) []float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
		if err != nil {
			t.Error(err)
			return nil
		}
		w := mpi.NewWorld(f)
		var out []float64
		for i := 0; i < 5; i++ {
			m, err := Measure(w, pl.Func(), 2, 10)
			if err != nil {
				t.Error(err)
				return nil
			}
			if err := Validate(w, pl.Func(), 1e-4, []int{i, p - 1 - i}); err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, m.Mean)
		}
		return out
	}
	var alone, together [worlds][]float64
	for i := range alone {
		alone[i] = job(uint64(i + 1))
	}
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = job(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range alone {
		if !slices.Equal(together[i], alone[i]) {
			t.Fatalf("world %d measured %v next to the others, %v alone", i, together[i], alone[i])
		}
	}
}
