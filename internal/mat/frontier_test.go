package mat

import (
	"math/rand"
	"testing"
)

// randomStages builds a random schedule-shaped stage sequence; density
// sweeps from sparse to heavy so closures both succeed and fail.
func randomStages(rng *rand.Rand, p, stages int, density float64) []*Bool {
	out := make([]*Bool, stages)
	for k := range out {
		s := NewBool(p)
		signals := int(density * float64(p))
		if signals < 1 {
			signals = 1
		}
		for c := 0; c < signals; c++ {
			s.Set(rng.Intn(p), rng.Intn(p), true)
		}
		out[k] = s
	}
	return out
}

func denseClosure(p int, stages []*Bool) bool {
	k := Identity(p)
	for _, s := range stages {
		k = Propagate(k, s)
	}
	return k.Count() == p*p
}

// TestFrontierClosureBitIdenticalToDense is the cross-engine property test:
// over random schedules up to P=256, word boundaries included, the
// receiver-wise closure verdict must match the dense Propagate/Count path
// exactly.
func TestFrontierClosureBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1109))
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 63, 64, 65, 127, 129, 256}
	closed, open := 0, 0
	for _, p := range sizes {
		trials := 40
		if p > 60 {
			trials = 8
		}
		for trial := 0; trial < trials; trial++ {
			stages := 1 + rng.Intn(6)
			density := []float64{0.3, 1, 2, 5}[rng.Intn(4)]
			ss := randomStages(rng, p, stages, density)
			want := denseClosure(p, ss)
			if got := FrontierClosure(p, ss); got != want {
				t.Fatalf("P=%d trial=%d: FrontierClosure=%v dense=%v", p, trial, got, want)
			}
			if want {
				closed++
			} else {
				open++
			}
		}
	}
	if closed == 0 || open == 0 {
		t.Fatalf("degenerate sweep: %d closed, %d open — adjust densities", closed, open)
	}
}

// TestFrontierClosureDissemination pins the classic closures: dissemination
// closes in ceil(log2 P) stages and fails with one stage fewer.
func TestFrontierClosureDissemination(t *testing.T) {
	for _, p := range []int{2, 3, 8, 16, 33, 128} {
		var stages []*Bool
		for d := 1; d < p; d *= 2 {
			s := NewBool(p)
			for i := 0; i < p; i++ {
				s.Set(i, (i+d)%p, true)
			}
			stages = append(stages, s)
		}
		if !FrontierClosure(p, stages) {
			t.Fatalf("P=%d dissemination should close", p)
		}
		if p > 2 && FrontierClosure(p, stages[:len(stages)-1]) {
			t.Fatalf("P=%d truncated dissemination should not close", p)
		}
	}
}

// TestPropagateTMatchesDense checks the transposed step against Propagate on
// random knowledge/stage pairs, with and without silenced ranks.
func TestPropagateTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 5, 17, 64, 90} {
		for trial := 0; trial < 12; trial++ {
			k := Identity(p)
			s := NewBool(p)
			for c := 0; c < 3*p; c++ {
				k.Set(rng.Intn(p), rng.Intn(p), true)
				if rng.Intn(2) == 0 {
					s.Set(rng.Intn(p), rng.Intn(p), true)
				}
			}
			silent := make([]uint64, (p+63)/64)
			for i := 0; i < p; i++ {
				if rng.Intn(5) == 0 {
					silent[i/64] |= 1 << (uint(i) % 64)
				}
			}

			kt := k.T()
			dst := NewBool(p)
			PropagateTSilencedInto(dst, kt, s, make([]uint64, len(silent)))
			if want := Propagate(k, s).T(); !dst.Equal(want) {
				t.Fatalf("P=%d PropagateTSilencedInto with nobody silenced differs from Propagate", p)
			}

			dstS := NewBool(p)
			PropagateTSilencedInto(dstS, kt, s, silent)
			wantS := NewBool(p)
			PropagateSilencedInto(wantS, k, s, silent)
			if !dstS.Equal(wantS.T()) {
				t.Fatalf("P=%d PropagateTSilencedInto mismatch", p)
			}
		}
	}
}
