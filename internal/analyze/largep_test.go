package analyze

import (
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// bruteForceClosure is the reference for closureChecker.run and
// stalledPairs: the row-wise silenced recurrence from Identity(P) over every
// stage, with the number of stages the survivors took to close (-1 if never)
// and the survivor pairs still unset read straight off K (entry (i, j): rank
// j knows of rank i's arrival).
func bruteForceClosure(s *sched.Schedule, faults []int, maxPairs int) (closes int, stalled []Pair) {
	silent := make([]uint64, (s.P+63)/64)
	dead := make([]bool, s.P)
	for _, f := range faults {
		silent[f/64] |= 1 << (uint(f) % 64)
		dead[f] = true
	}
	k, next := mat.Identity(s.P), mat.NewBool(s.P)
	holes := func() []Pair {
		var out []Pair
		for i := 0; i < s.P; i++ {
			for j := 0; j < s.P; j++ {
				if !dead[i] && !dead[j] && !k.At(i, j) {
					out = append(out, Pair{From: i, To: j})
				}
			}
		}
		return out
	}
	closes = -1
	if len(holes()) == 0 { // at most one survivor
		closes = 0
	}
	for a, st := range s.Stages {
		mat.PropagateSilencedInto(next, k, st, silent)
		k, next = next, k
		if closes < 0 && len(holes()) == 0 {
			closes = a + 1
		}
	}
	stalled = holes()
	if len(stalled) > maxPairs {
		stalled = stalled[:maxPairs]
	}
	return closes, stalled
}

// TestClosureCheckerTransposedMatchesDense drives the closure checker — the
// receiver-wise mat.Closure with the fault set as its silence mask — over
// random fault sets of thinned dissemination schedules at one-word,
// word-boundary and sub-word rank counts, and requires the verdict, the
// closing stage behind the lateness score and the witness pairs of the dense
// row-wise brute force.
func TestClosureCheckerTransposedMatchesDense(t *testing.T) {
	rng := stats.NewRNG(31)
	for _, p := range []int{3, 8, 33, 64} {
		s := sched.Dissemination(p)
		// Thin the pattern so some fault sets actually break the closure.
		s.Stages[1].Set(1, 3%p, false)
		c := newClosureChecker(s)
		broken := 0
		for trial := 0; trial < 200; trial++ {
			m := 1 + rng.Intn(min(3, p-1))
			faults := make([]int, 0, m)
			seen := map[int]bool{}
			for len(faults) < m {
				f := rng.Intn(p)
				if !seen[f] {
					seen[f] = true
					faults = append(faults, f)
				}
			}
			got := c.run(faults)
			want, wantPairs := bruteForceClosure(s, faults, 8)
			if got != want {
				t.Fatalf("P=%d faults %v: checker closes after %d stages, brute force after %d", p, faults, got, want)
			}
			if got >= 0 {
				continue
			}
			broken++
			pairs := c.stalledPairs(8)
			if len(pairs) != len(wantPairs) {
				t.Fatalf("P=%d faults %v: %d vs %d stalled pairs", p, faults, len(pairs), len(wantPairs))
			}
			for i := range pairs {
				if pairs[i] != wantPairs[i] {
					t.Fatalf("P=%d faults %v: witness %d differs: %v vs %v", p, faults, i, pairs[i], wantPairs[i])
				}
			}
		}
		if broken == 0 {
			t.Fatalf("P=%d: no fault set broke the closure — the witness path went untested", p)
		}
	}
}

// TestArticulationTwoBFSMatchesAllPairs pins the 2-BFS strong-connectivity
// probe against the naive all-seeds formulation it replaced.
func TestArticulationTwoBFSMatchesAllPairs(t *testing.T) {
	rng := stats.NewRNG(47)
	for _, p := range []int{5, 9, 16, 33} {
		for trial := 0; trial < 30; trial++ {
			s := sched.New("rand", p)
			stage := sched.Dissemination(p).Stages[0].Clone()
			for n := 0; n < p; n++ {
				i, j := rng.Intn(p), rng.Intn(p)
				if i != j {
					stage.Set(i, j, rng.Intn(2) == 0)
				}
			}
			s.AddStage(stage)
			c := newClosureChecker(s)
			union := unionMatrix(s)
			unionT := union.T()
			for f := 0; f < p; f++ {
				got := c.articulation(union, unionT, f)
				want := articulationAllPairs(c, union, f)
				if got != want {
					t.Fatalf("P=%d trial %d rank %d: 2-BFS %v, all-pairs %v\n%s", p, trial, f, got, want, s)
				}
			}
		}
	}
}

// articulationAllPairs is the replaced formulation, kept as the test oracle:
// from every survivor seed, forward reachability must cover all survivors.
func articulationAllPairs(c *closureChecker, union *mat.Bool, f int) bool {
	silent := make([]uint64, c.words)
	silent[f/64] |= 1 << (uint(f) % 64)
	seed := make([]uint64, c.words)
	for i := 0; i < c.s.P; i++ {
		if i == f {
			continue
		}
		for w := range seed {
			seed[w] = 0
		}
		seed[i/64] |= 1 << (uint(i) % 64)
		union.ReachableFrom(seed, silent)
		if !coversAllExcept(seed, silent, c.s.P) {
			return true
		}
	}
	return false
}

// TestCertifyLargePBudget runs the certifier at P=256 in pruned mode — the
// configuration the articulation and transposed-closure speedups exist for —
// and requires its verdict to honour the honesty contract against ground
// truth.
func TestCertifyLargePBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("large-P certification in -short mode")
	}
	p := 256
	// 1-fault resilient, so size 1 passes exhaustively and size 2 must go
	// through the pruned candidate search (C(256,2) ≫ budget).
	s := sched.SymmetricDissemination(p)
	res := CertifyK(s, 2, ResilienceOptions{MaxSubsets: 1024})
	if res.Exhaustive {
		t.Fatalf("P=%d k=2 cannot be exhaustive within 1024 subsets", p)
	}
	if res.SubsetsChecked > 1024 {
		t.Fatalf("checked %d subsets, budget was 1024", res.SubsetsChecked)
	}
	if res.Certified {
		return // non-exhaustive pass keeps its honesty flag; nothing to verify
	}
	if !brokenBy(s, res.Counterexample) {
		t.Fatalf("counterexample %v does not break the schedule", res.Counterexample)
	}
	for i := range res.Counterexample {
		sub := append(append([]int(nil), res.Counterexample[:i]...), res.Counterexample[i+1:]...)
		if len(sub) > 0 && brokenBy(s, sub) {
			t.Fatalf("counterexample %v not minimal: %v breaks it too", res.Counterexample, sub)
		}
	}
}
