package predict

import (
	"fmt"
	"reflect"
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

// costScript drives a working schedule, the accepted base it was edited from,
// and the evaluator tracking both through the climber's protocol, checking
// every Cost against Predictor.Cost.
type costScript struct {
	t       *testing.T
	pd      *Predictor
	s, base *sched.Schedule
	e       *Evaluator
}

// costGenerators are the schedules a script starts from or adopts.
var costGenerators = []func(int) *sched.Schedule{
	sched.Tree, sched.Dissemination, sched.Linear,
	func(p int) *sched.Schedule { return sched.New("empty", p) },
}

const costScriptMaxStages = 12

func newCostScript(t *testing.T, pd *Predictor, s *sched.Schedule) *costScript {
	return &costScript{t: t, pd: pd, s: s, base: s.Clone(), e: NewEvaluator(pd)}
}

// apply performs one operation: op picks the kind, and x, y, z pick the stage
// and the signal (reduced modulo the current shape, so any integers — RNG
// draws or fuzz bytes — form a valid script).
func (h *costScript) apply(op, x, y, z int, ctx string) {
	s, e := h.s, h.e
	n, i, j := s.NumStages(), y%s.P, z%s.P
	switch op % 8 {
	case 0: // append a stage carrying i→j
		if n < costScriptMaxStages && i != j {
			st := mat.NewBool(s.P)
			st.Set(i, j, true)
			s.AddStage(st)
			e.Touch(s, n, i)
		}
	case 1: // move one of row i's signals to a neighbouring stage
		if n < 2 {
			return
		}
		k := x % n
		dk := k + 1 - 2*(x/n%2)
		row := s.Stages[k].Row(i)
		if dk < 0 || dk >= n || len(row) == 0 {
			return
		}
		j = row[z%len(row)]
		had := s.Stages[dk].At(i, j)
		s.Stages[k].Set(i, j, false)
		s.Stages[dk].Set(i, j, true)
		e.Touch(s, k, i)
		if !had {
			e.Touch(s, dk, i)
		}
	case 2:
		h.check(ctx)
	case 3: // commit, after a Cost or without one
		e.Commit()
		h.base = s.Clone()
	case 4: // reject: back to the base
		e.Reject()
		h.s = h.base.Clone()
	case 5: // adopt another schedule wholesale, with a fresh evaluator
		h.e = NewEvaluator(h.pd)
		h.s = costGenerators[x%len(costGenerators)](s.P)
		h.base = h.s.Clone()
	default: // toggle i→j
		if n > 0 && i != j {
			k := x % n
			s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
			e.Touch(s, k, i)
		}
	}
}

// check requires the evaluator's Cost to equal Predictor.Cost, and Timeline
// to equal the paper-literal reference, on the working schedule.
func (h *costScript) check(ctx string) {
	h.t.Helper()
	if got, want := h.e.Cost(h.s), h.pd.Cost(h.s); got != want {
		h.t.Fatalf("%s policy %v: evaluator %v, Cost %v\n%s", ctx, h.pd.Policy, got, want, h.s)
	}
	if !reflect.DeepEqual(h.pd.Timeline(h.s), referenceTimeline(h.pd, h.s)) {
		h.t.Fatalf("%s policy %v: Timeline differs from the reference\n%s", ctx, h.pd.Policy, h.s)
	}
}

// runCostScript plays ops, four integers each, from the generator gen at p
// ranks under policy, and checks the final state.
func runCostScript(t *testing.T, p, gen int, policy CostPolicy, ops []int) {
	pd := &Predictor{Prof: noisyProfile(p, uint64(p)), Policy: policy}
	h := newCostScript(t, pd, costGenerators[gen%len(costGenerators)](p))
	for n := 0; len(ops) >= 4; n, ops = n+1, ops[4:] {
		h.apply(ops[0], ops[1], ops[2], ops[3], fmt.Sprintf("p %d op %d", p, n))
	}
	h.check(fmt.Sprintf("p %d end of script", p))
}

// TestEvaluatorPropertyRandomMutations runs long random scripts — toggles,
// moves, appends, commits with and without a Cost, rejects and adoptions —
// and asserts every Cost stays bit-identical to the from-scratch predictor
// under every cost policy.
func TestEvaluatorPropertyRandomMutations(t *testing.T) {
	for _, pol := range []CostPolicy{FirstStageEq1, AlwaysEq1} {
		for _, p := range []int{1, 11, 64, 65, 130} {
			rng := stats.NewRNG(uint64(42 + int(pol) + p))
			ops := make([]int, 4*500)
			for n := range ops {
				ops[n] = rng.Intn(1 << 16)
			}
			runCostScript(t, p, 1, pol, ops)
		}
	}
}

// TestEvaluatorTruncateThenRegrow rejects an appended stage and appends one
// with different content: a stale priced stage would poison the estimate.
func TestEvaluatorTruncateThenRegrow(t *testing.T) {
	runCostScript(t, 8, 0, FirstStageEq1, []int{
		2, 0, 0, 0, // Cost of tree(8)
		0, 0, 1, 6, 2, 0, 0, 0, 4, 0, 0, 0, // append 1→6, Cost, reject
		0, 0, 0, 7, 6, 6, 3, 4, // append 0→7, add 3→4 to it
	})
}

// staleRowScript commits a toggle without a Cost — the batch winner's
// re-apply — and then edits the same row as the next candidate, rejects it
// and prices the base again: Reject must restore the committed row's drain,
// not the one priced before the commit.
var staleRowScript = []int{
	2, 0, 0, 0, // Cost of the seed
	6, 0, 3, 1, 3, 0, 0, 0, // toggle 3→1 in stage 0, commit without a Cost
	6, 0, 3, 2, 2, 0, 0, 0, 4, 0, 0, 0, // toggle 3→2 there, Cost, reject
	2, 0, 0, 0,
}

// FuzzEvaluatorMatchesCost runs the protocol script from fuzz bytes: the rank
// count (1…130), the starting generator, the policy, then four bytes per
// operation.
func FuzzEvaluatorMatchesCost(f *testing.F) {
	script := []byte{
		2, 0, 0, 0, // Cost of the seed
		6, 1, 4, 7, 2, 0, 0, 0, 4, 0, 0, 0, // toggle, Cost, reject
		1, 2, 3, 0, 2, 0, 0, 0, 3, 0, 0, 0, // move, Cost, commit
		6, 0, 2, 5, 3, 0, 0, 0, 2, 0, 0, 0, // toggle, commit without a Cost, Cost
		0, 0, 1, 2, 2, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, // append, Cost, reject it, Cost
		0, 0, 2, 1, 6, 9, 1, 3, 3, 0, 0, 0, // append, edit it, commit without a Cost
		5, 1, 0, 0, 6, 3, 2, 6, 2, 0, 0, 0, // adopt, toggle, Cost
	}
	stale := make([]byte, len(staleRowScript))
	for n, v := range staleRowScript {
		stale[n] = byte(v)
	}
	for _, p := range []byte{5, 33, 64, 65, 130} {
		for g := range byte(len(costGenerators)) {
			for pol := range byte(2) {
				f.Add(append([]byte{p - 1, g, pol}, script...))
				f.Add(append([]byte{p - 1, g, pol}, stale...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ops := make([]int, min(len(data)-3, 4*64))
		for n := range ops {
			ops[n] = int(data[3+n])
		}
		runCostScript(t, 1+int(data[0])%130, int(data[1]), CostPolicy(data[2]%2), ops)
	})
}

func TestEvaluatorTouchPanicsOutOfRange(t *testing.T) {
	e := NewEvaluator(New(noisyProfile(4, 1)))
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range Touch accepted")
		}
	}()
	e.Touch(sched.Tree(4), 0, 9)
}

// BenchmarkEvaluatorIncremental16 times the climber's pattern: toggle a
// signal, Touch, Cost, then Reject and undo it — or, one time in eight,
// Commit it.
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
		e.Touch(s, k, i)
		_ = e.Cost(s)
		if n%8 == 0 {
			e.Commit()
			continue
		}
		e.Reject()
		s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
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
