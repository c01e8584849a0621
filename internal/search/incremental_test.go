package search

import (
	"math"
	"testing"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// TestAnnealDeterministicAcrossWorkers is the portfolio's core contract: for
// a fixed seed the returned schedule and cost are bit-identical whether the
// restarts run on 1, 2, or 8 workers.
func TestAnnealDeterministicAcrossWorkers(t *testing.T) {
	pd := clusteredPredictor(t, 16)
	seed := sched.Dissemination(16)
	opts := AnnealOptions{Seed: 9, Steps: 1200, Restarts: 8, ExchangeEvery: 200}

	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		res, err := Anneal(pd, seed, o)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || !res.Schedule.Equal(ref.Schedule) || res.Examined != ref.Examined {
			t.Fatalf("workers=%d diverged: cost %v vs %v, examined %d vs %d",
				workers, res.Cost, ref.Cost, res.Examined, ref.Examined)
		}
	}
}

// TestClimberInvariants steps one climber directly and checks, at every
// accepted state, that the incrementally maintained cost, hash, and barrier
// verdict agree with from-scratch evaluation — the property the apply/undo
// deltas and caches must preserve over arbitrary mutation sequences.
func TestClimberInvariants(t *testing.T) {
	pd := clusteredPredictor(t, 10)
	seedSched := sched.Dissemination(10)
	z := newZobrist(10, seedSched.NumStages()+2)
	c := newClimber(pd, z, seedSched, pd.Cost(seedSched), stats.NewRNG(4), seedSched.NumStages()+2, nil, 0)
	for step := 0; step < 3000; step++ {
		c.step()
		if step%50 != 0 {
			continue
		}
		if !c.s.IsBarrier() {
			t.Fatalf("step %d: accepted state is not a barrier", step)
		}
		if want := pd.Cost(c.s); c.cost != want {
			t.Fatalf("step %d: incremental cost %v, from scratch %v", step, c.cost, want)
		}
		if want := z.hashOf(c.s); c.hash != want {
			t.Fatalf("step %d: incremental hash %#x, from scratch %#x", step, c.hash, want)
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
// kind — both unscored (the transposition-hit path, where change notes
// cancel) and after score (the miss path: the knowledge cache rolls back from
// its undo journal exactly when score ran Eq. 3, and the notes of a kind that
// skipped it cancel like a hit's) — and checks the schedule, hash, evaluator,
// and cached verdict return to their exact prior state.
func TestClimberUndoRestoresState(t *testing.T) {
	pd := clusteredPredictor(t, 8)
	seedSched := sched.Tree(8)
	z := newZobrist(8, seedSched.NumStages()+2)
	c := newClimber(pd, z, seedSched, pd.Cost(seedSched), stats.NewRNG(2), seedSched.NumStages()+2, nil, 0)
	c.kc.Barrier(c.s)
	c.ev.Cost(c.s)
	for n := 0; n < 2000; n++ {
		before := c.s.Clone()
		h := c.hash
		m, ok := c.draw()
		if !ok {
			continue
		}
		c.apply(m)
		verified := false
		if n%2 == 1 {
			_, verified = c.score(m)
		}
		c.undo(m, verified)
		if !c.s.Equal(before) {
			t.Fatalf("mutation kind %d not undone:\nbefore:\n%s\nafter:\n%s", m.kind, before, c.s)
		}
		if c.hash != h {
			t.Fatalf("mutation kind %d: hash %#x after undo, want %#x", m.kind, c.hash, h)
		}
		if got, want := c.ev.Cost(c.s), pd.Cost(c.s); got != want {
			t.Fatalf("mutation kind %d: evaluator %v after undo, want %v", m.kind, got, want)
		}
		if got, want := c.kc.Barrier(c.s), c.s.IsBarrier(); got != want {
			t.Fatalf("mutation kind %d: barrier %v after undo, want %v", m.kind, got, want)
		}
	}
}

func TestAnnealTracksInRestartBest(t *testing.T) {
	// The result must be the cheapest state seen anywhere in the climb, so it
	// can never exceed the (deterministically replayed) per-climber minimum.
	pd := clusteredPredictor(t, 12)
	seed := sched.Dissemination(12)
	opts := AnnealOptions{Seed: 21, Steps: 1500, Restarts: 2, Workers: 1}
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
	res, err := Anneal(pd, seed, AnnealOptions{Seed: 1, Budget: 900, Restarts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each restart performs Budget/Restarts attempts; inapplicable draws are
	// not examined, so the total stays at or below the budget.
	if res.Examined == 0 || res.Examined > 900 {
		t.Fatalf("budget 900 examined %d candidates", res.Examined)
	}
}

func TestAnnealProgressCallback(t *testing.T) {
	pd := clusteredPredictor(t, 12)
	seed := sched.Tree(12)
	var rounds []Progress
	_, err := Anneal(pd, seed, AnnealOptions{
		Seed: 5, Steps: 1000, Restarts: 2, Workers: 2, ExchangeEvery: 250,
		Progress: func(p Progress) { rounds = append(rounds, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("expected 4 progress rounds, got %d", len(rounds))
	}
	last := rounds[len(rounds)-1]
	if last.StepsDone != 1000 || last.Round != 4 || last.Rounds != 4 {
		t.Fatalf("final progress snapshot wrong: %+v", last)
	}
	if last.Examined == 0 || math.IsInf(last.BestCost, 1) {
		t.Fatalf("progress carries no data: %+v", last)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].BestCost > rounds[i-1].BestCost {
			t.Fatalf("best cost regressed between rounds: %v -> %v",
				rounds[i-1].BestCost, rounds[i].BestCost)
		}
	}
}

// TestTranspositionTableHits replays a small climb and checks the table
// actually answers repeat candidates: the number of distinct entries must
// stay well below the number examined on a small instance where the walk
// revisits states constantly.
func TestTranspositionTableHits(t *testing.T) {
	pd := predict.New(uniformProfile(4))
	seedSched := sched.Dissemination(4)
	z := newZobrist(4, seedSched.NumStages()+2)
	c := newClimber(pd, z, seedSched, pd.Cost(seedSched), stats.NewRNG(8), seedSched.NumStages()+2, nil, 0)
	c.run(4000)
	if c.examined < 1000 {
		t.Fatalf("only %d candidates examined", c.examined)
	}
	if len(c.table) >= c.examined {
		t.Fatalf("no transposition reuse: %d entries for %d examined", len(c.table), c.examined)
	}
}
