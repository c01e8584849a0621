package predict

import (
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// noisyProfile builds a deterministic heterogeneous profile so cached and
// from-scratch evaluations exercise distinct per-link costs.
func noisyProfile(p int, seed uint64) *profile.Profile {
	rng := stats.NewRNG(seed)
	pr := profile.New("noisy", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				pr.O.Set(i, j, 1e-6+rng.Float64()*1e-6)
				continue
			}
			pr.O.Set(i, j, 5e-6+rng.Float64()*20e-6)
			pr.L.Set(i, j, 1e-6+rng.Float64()*8e-6)
		}
	}
	return pr
}

func TestEvaluatorMatchesCostOnClassics(t *testing.T) {
	pd := New(noisyProfile(16, 3))
	for _, s := range []*sched.Schedule{sched.Linear(16), sched.Dissemination(16), sched.Tree(16)} {
		e := NewEvaluator(pd)
		if got, want := e.Cost(s), pd.Cost(s); got != want {
			t.Fatalf("%s: evaluator %v, Cost %v", s.Name, got, want)
		}
		// A second query without mutations must reuse the cache verbatim.
		if got, want := e.Cost(s), pd.Cost(s); got != want {
			t.Fatalf("%s: second query diverged: %v vs %v", s.Name, got, want)
		}
	}
}

// TestEvaluatorPropertyRandomMutations mutates a working schedule for many
// steps — signal toggles, moves, appends, truncations — reporting only the
// touched rows, and asserts the incremental cost stays bit-identical to the
// from-scratch predictor under every cost policy.
func TestEvaluatorPropertyRandomMutations(t *testing.T) {
	for _, pol := range []CostPolicy{FirstStageEq1, AlwaysEq1} {
		p := 11
		pd := &Predictor{Prof: noisyProfile(p, 9), Policy: pol}
		rng := stats.NewRNG(uint64(42 + int(pol)))
		s := sched.Dissemination(p)
		e := NewEvaluator(pd)
		for step := 0; step < 500; step++ {
			switch rng.Intn(10) {
			case 0: // append a stage carrying one signal
				if s.NumStages() < 10 {
					st := mat.NewBool(p)
					st.Set(rng.Intn(p), rng.Intn(p-1)+1, true)
					s.AddStage(st)
				}
			case 1: // truncate the last stage
				if s.NumStages() > 1 {
					s.Stages = s.Stages[:s.NumStages()-1]
					e.Truncate(s.NumStages())
				}
			case 2: // move a signal between stages
				k := rng.Intn(s.NumStages())
				dk := rng.Intn(s.NumStages())
				i, j := rng.Intn(p), rng.Intn(p)
				if i == j || !s.Stages[k].At(i, j) {
					continue
				}
				s.Stages[k].Set(i, j, false)
				s.Stages[dk].Set(i, j, true)
				e.Touch(k, i)
				e.Touch(dk, i)
			default: // toggle a signal
				k := rng.Intn(s.NumStages())
				i, j := rng.Intn(p), rng.Intn(p)
				if i == j {
					continue
				}
				s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
				e.Touch(k, i)
			}
			if got, want := e.Cost(s), pd.Cost(s); got != want {
				t.Fatalf("policy %v step %d: evaluator %v, Cost %v\n%s",
					pol, step, got, want, s)
			}
		}
	}
}

func TestEvaluatorTruncateThenRegrow(t *testing.T) {
	pd := New(noisyProfile(8, 5))
	s := sched.Tree(8)
	e := NewEvaluator(pd)
	e.Cost(s)
	// Drop the last stage and append one with different content: without the
	// Truncate call the stale cached row would poison the estimate.
	last := s.NumStages() - 1
	s.Stages = s.Stages[:last]
	e.Truncate(last)
	st := mat.NewBool(8)
	st.Set(0, 7, true)
	st.Set(3, 4, true)
	s.AddStage(st)
	if got, want := e.Cost(s), pd.Cost(s); got != want {
		t.Fatalf("regrown stage: evaluator %v, Cost %v", got, want)
	}
}

func TestEvaluatorTouchPanicsOutOfRange(t *testing.T) {
	e := NewEvaluator(New(noisyProfile(4, 1)))
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range Touch accepted")
		}
	}()
	e.Touch(0, 9)
}

func BenchmarkEvaluatorIncremental16(b *testing.B) {
	pd := New(noisyProfile(16, 7))
	s := sched.Dissemination(16)
	e := NewEvaluator(pd)
	e.Cost(s)
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k := rng.Intn(s.NumStages())
		i, j := rng.Intn(16), rng.Intn(16)
		if i == j {
			continue
		}
		s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
		e.Touch(k, i)
		_ = e.Cost(s)
	}
}

func BenchmarkCostFromScratch16(b *testing.B) {
	pd := New(noisyProfile(16, 7))
	s := sched.Dissemination(16)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		_ = pd.Cost(s)
	}
}
