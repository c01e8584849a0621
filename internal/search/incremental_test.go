package search

import (
	"math"
	"runtime"
	"testing"

	"topobarrier/internal/perftest"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// TestAnnealDeterministicAcrossWorkers is the portfolio's core contract: for
// a fixed seed the returned schedule and cost are bit-identical whether the
// eight restarts run on 1, 2, or 3 cores (GOMAXPROCS).
func TestAnnealDeterministicAcrossWorkers(t *testing.T) {
	pd := clusteredPredictor(t, 16)
	seed := sched.Dissemination(16)
	opts := AnnealOptions{Seed: 9, Budget: 9600, Restarts: 8}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		res, err := Anneal(pd, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || !res.Schedule.Equal(ref.Schedule) || res.Examined != ref.Examined {
			t.Fatalf("GOMAXPROCS=%d diverged: cost %v vs %v, examined %d vs %d",
				procs, res.Cost, ref.Cost, res.Examined, ref.Examined)
		}
	}
}

// TestClimberInvariants steps one climber directly and checks, at every
// accepted state, that the incrementally maintained cost and barrier
// verdict agree with from-scratch evaluation — the property the apply/undo
// deltas and caches must preserve over arbitrary mutation sequences.
func TestClimberInvariants(t *testing.T) {
	pd := clusteredPredictor(t, 10)
	seedSched := sched.Dissemination(10)
	c := newClimber(pd, seedSched, pd.Cost(seedSched), stats.NewRNG(4), seedSched.NumStages()+2, nil, 0)
	for step := 0; step < 3000; step++ {
		c.stepBatch(1)
		if step%50 != 0 {
			continue
		}
		if !c.s.IsBarrier() {
			t.Fatalf("step %d: accepted state is not a barrier", step)
		}
		if want := pd.Cost(c.s); c.cost != want {
			t.Fatalf("step %d: incremental cost %v, from scratch %v", step, c.cost, want)
		}
	}
	if c.bestCost > c.cost {
		t.Fatalf("best %v worse than current %v", c.bestCost, c.cost)
	}
	if !c.best.IsBarrier() {
		t.Fatalf("tracked best is not a barrier")
	}
	if want := pd.Cost(c.best); c.bestCost != want {
		t.Fatalf("tracked best cost %v, from scratch %v", c.bestCost, want)
	}
}

// TestClimberUndoRestoresState applies and immediately undoes every mutation
// kind, both unscored and after score (which resumes the knowledge closure
// for the kinds that run Eq. 3), and checks the schedule, evaluator and
// resumed verdict return to their exact prior state.
func TestClimberUndoRestoresState(t *testing.T) {
	pd := clusteredPredictor(t, 8)
	seedSched := sched.Tree(8)
	c := newClimber(pd, seedSched, pd.Cost(seedSched), stats.NewRNG(2), seedSched.NumStages()+2, nil, 0)
	c.know.Resume(c.s.Stages)
	c.ev.Cost(c.s)
	for n := 0; n < 2000; n++ {
		before := c.s.Clone()
		m, ok := c.draw()
		if !ok {
			continue
		}
		c.apply(m)
		if n%2 == 1 {
			c.score(m)
		}
		c.undo(m)
		if !c.s.Equal(before) {
			t.Fatalf("mutation kind %d not undone:\nbefore:\n%s\nafter:\n%s", m.kind, before, c.s)
		}
		if got, want := c.ev.Cost(c.s), pd.Cost(c.s); got != want {
			t.Fatalf("mutation kind %d: evaluator %v after undo, want %v", m.kind, got, want)
		}
		if got, want := c.know.Resume(c.s.Stages), c.s.IsBarrier(); got != want {
			t.Fatalf("mutation kind %d: barrier %v after undo, want %v", m.kind, got, want)
		}
	}
}

func TestAnnealTracksInRestartBest(t *testing.T) {
	// The result must be the cheapest state seen anywhere in the climb, so it
	// can never exceed the (deterministically replayed) per-climber minimum.
	pd := clusteredPredictor(t, 12)
	seed := sched.Dissemination(12)
	opts := AnnealOptions{Seed: 21, Budget: 3000, Restarts: 2}
	res, err := Anneal(pd, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pd.Cost(res.Schedule); got != res.Cost {
		t.Fatalf("reported cost %v, schedule re-costs to %v", res.Cost, got)
	}
	if res.Cost > pd.Cost(seed) {
		t.Fatalf("result worse than seed")
	}
}

func TestAnnealBudgetCapsExaminations(t *testing.T) {
	pd := clusteredPredictor(t, 12)
	seed := sched.Tree(12)
	res, err := Anneal(pd, seed, AnnealOptions{Seed: 1, Budget: 900, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each restart performs Budget/Restarts attempts; inapplicable draws are
	// not examined, so the total stays at or below the budget.
	if res.Examined == 0 || res.Examined > 900 {
		t.Fatalf("budget 900 examined %d candidates", res.Examined)
	}
}

// TestRevisitedStateDecidesAlike reaches one schedule by two routes — add the
// signal to the neighbouring stage (a plateau accept), then remove the
// original; or move it there in one mutation — and requires the same
// accept/reject decision on both, although remove verifies before pricing and
// move prices before verifying, and a knowledge closure whose resumed verdict
// is still right afterwards on either route.
func TestRevisitedStateDecidesAlike(t *testing.T) {
	pd := clusteredPredictor(t, 8)
	decide := func(c *climber, m mutation) bool { // climber.step's protocol
		if cost := c.examine(m); cost <= c.cost {
			c.accept(cost)
			return true
		}
		c.undo(m)
		return false
	}
	// routes moves signal i→j from stage k to dk both ways from the same base
	// state; ok is false when the add is not a plateau accept, where the two
	// routes would compare against different bounds.
	routes := func(base *sched.Schedule, baseCost float64, k, dk, i, j int) (kept, ok bool) {
		maxStages := base.NumStages() + 2
		twoStep := newClimber(pd, base, baseCost, stats.NewRNG(1), maxStages, nil, 0)
		cost := twoStep.examine(mutation{kind: mutAdd, k: dk, i: i, j: j})
		if math.Float64bits(cost) != math.Float64bits(baseCost) {
			return false, false
		}
		twoStep.accept(cost)
		oneStep := newClimber(pd, base, baseCost, stats.NewRNG(1), maxStages, nil, 0)

		viaRemove := decide(twoStep, mutation{kind: mutRemove, k: k, i: i, j: j})
		viaMove := decide(oneStep, mutation{kind: mutMove, k: k, dk: dk, i: i, j: j})
		if viaRemove != viaMove {
			t.Fatalf("%s: signal %d→%d stage %d→%d: accepted %v via add+remove, %v via move",
				base.Name, i, j, k, dk, viaRemove, viaMove)
		}
		if viaMove && (!oneStep.s.Equal(twoStep.s) || math.Float64bits(oneStep.cost) != math.Float64bits(twoStep.cost)) {
			t.Fatalf("%s: the two routes kept different states", base.Name)
		}
		for _, c := range []*climber{twoStep, oneStep} {
			if got, want := c.know.Resume(c.s.Stages), c.s.IsBarrier(); got != want || !want {
				t.Fatalf("%s: after signal %d→%d stage %d→%d the closure answers barrier=%v, from scratch %v",
					base.Name, i, j, k, dk, got, want)
			}
			if got, want := c.ev.Cost(c.s), pd.Cost(c.s); got != want || got != c.cost {
				t.Fatalf("%s: evaluator %v, from scratch %v, tracked %v", base.Name, got, want, c.cost)
			}
		}
		return viaMove, true
	}
	accepted, rejected := 0, 0
	for _, seedSched := range []*sched.Schedule{sched.Tree(8), sched.Dissemination(8), sched.Linear(8)} {
		warm := newClimber(pd, seedSched, pd.Cost(seedSched), stats.NewRNG(6), seedSched.NumStages()+2, nil, 0)
		warm.run(300)
		base := warm.s
		for k := range base.Stages {
			for _, dk := range []int{k - 1, k + 1} {
				if dk < 0 || dk >= base.NumStages() {
					continue
				}
				for i := 0; i < base.P; i++ {
					for _, j := range base.Stages[k].Row(i) {
						if base.Stages[dk].At(i, j) {
							continue
						}
						switch kept, ok := routes(base, warm.cost, k, dk, i, j); {
						case !ok:
						case kept:
							accepted++
						default:
							rejected++
						}
					}
				}
			}
		}
	}
	t.Logf("routes compared: %d accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("routes compared: %d accepted, %d rejected; want both decisions exercised", accepted, rejected)
	}
}

// TestAnnealAllocationBound pins what the anneal allocates at the ledger's
// search_cold_p32 shape in miniature (binomial-tree seed, P=32, 200 000
// candidates): the working schedules, knowledge closures (the accepted
// schedule's levels plus the candidate's scratch levels, grown once to the
// longest schedule and reused) and evaluators of three climbers plus a clone
// per new best. A per-candidate allocation, a level store that regrows per
// verdict, or a per-climber memo of visited states (7 MB when there was one)
// fails here. The bound holds at GOMAXPROCS 1, 2 and 3: a round's goroutines
// cost no more than their closures.
func TestAnnealAllocationBound(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	pd := clusteredPredictor(t, 32)
	seed := sched.Tree(32)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Anneal(pd, seed, AnnealOptions{Seed: 1, Budget: 200_000}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("Anneal at P=32, budget 200000, GOMAXPROCS=%d allocated %.2f MB", procs, mb)
		if mb > 4.5 {
			t.Fatalf("Anneal at P=32, budget 200000, GOMAXPROCS=%d allocated %.2f MB, want ≤ 4.5", procs, mb)
		}
	}
}
