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

// denseRun is the row-wise reference for Closure.Run: Propagate (or, with a
// silence mask, PropagateSilencedInto) from Identity(p) over every stage. It
// returns how many stages it took until every unsilenced pair was set (-1 if
// never) and the final knowledge matrix.
func denseRun(p int, stages []*Bool, silent []uint64) (closes int, k *Bool) {
	live := func(i int) bool { return silent == nil || silent[i/64]&(1<<(uint(i)%64)) == 0 }
	closed := func(k *Bool) bool {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if live(i) && live(j) && !k.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	k = Identity(p)
	closes = -1
	if closed(k) {
		closes = 0
	}
	for a, s := range stages {
		if silent == nil {
			k = Propagate(k, s)
		} else {
			next := NewBool(p)
			PropagateSilencedInto(next, k, s, silent)
			k = next
		}
		if closes < 0 && closed(k) {
			closes = a + 1
		}
	}
	return closes, k
}

// checkRun runs c over the stages and requires denseRun's closing stage and,
// for every unsilenced rank j, a know set equal to column j of the final K.
func checkRun(t *testing.T, c *Closure, p int, stages []*Bool, silent []uint64) int {
	t.Helper()
	wantCloses, k := denseRun(p, stages, silent)
	if got := c.Run(stages, silent); got != wantCloses {
		t.Fatalf("P=%d silent=%x: Run=%d, dense reference closes after %d", p, silent, got, wantCloses)
	}
	for j := 0; j < p; j++ {
		if silent != nil && silent[j/64]&(1<<(uint(j)%64)) != 0 {
			continue
		}
		want := make([]uint64, k.words)
		for _, i := range k.Col(j) {
			want[i/64] |= 1 << (uint(i) % 64)
		}
		got := c.Know(j)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("P=%d silent=%x: know set of rank %d word %d is %x, dense column %x", p, silent, j, w, got[w], want[w])
			}
		}
	}
	return wantCloses
}

// TestFrontierClosureBitIdenticalToDense is the cross-engine property test:
// over random schedules up to P=256, word boundaries included, the
// receiver-wise closure's verdict, closing stage and know sets must match the
// dense Propagate path exactly. One Closure per size serves every trial, so
// slot reuse across runs is covered too.
func TestFrontierClosureBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1109))
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 63, 64, 65, 127, 129, 256}
	closed, open := 0, 0
	for _, p := range sizes {
		trials := 40
		if p > 60 {
			trials = 8
		}
		c := NewClosure(p)
		for trial := 0; trial < trials; trial++ {
			stages := 1 + rng.Intn(6)
			density := []float64{0.3, 1, 2, 5}[rng.Intn(4)]
			if checkRun(t, c, p, randomStages(rng, p, stages, density), nil) >= 0 {
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

// TestClosureSilenceMask holds Run with a silence mask to the row-wise
// PropagateSilencedInto reference — verdict, closing stage and the
// unsilenced know sets — at one-word, word-boundary and multi-word sizes,
// interleaved with unsilenced runs on the same Closure.
func TestClosureSilenceMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	closed, open := 0, 0
	for _, p := range []int{1, 2, 63, 64, 65, 129} {
		c := NewClosure(p)
		words := (p + 63) / 64
		for trial := 0; trial < 24; trial++ {
			silent := make([]uint64, words)
			switch trial % 3 {
			case 0: // nobody: an empty mask must match a nil one
			case 1: // the last rank, at the word boundary
				silent[(p-1)/64] |= 1 << (uint(p-1) % 64)
			default:
				for i := 0; i < p; i++ {
					if rng.Intn(8) == 0 {
						silent[i/64] |= 1 << (uint(i) % 64)
					}
				}
			}
			stages := randomStages(rng, p, 2+rng.Intn(6), []float64{1, 2, 5}[rng.Intn(3)])
			if checkRun(t, c, p, stages, silent) >= 0 {
				closed++
			} else {
				open++
			}
			checkRun(t, c, p, stages, nil)
		}
	}
	if closed == 0 || open == 0 {
		t.Fatalf("degenerate sweep: %d closed, %d open — adjust densities", closed, open)
	}
}

// TestFrontierClosureDissemination pins the classic closures: dissemination
// closes after exactly ceil(log2 P) stages and fails with one stage fewer.
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
		c := NewClosure(p)
		if got := c.Run(stages, nil); got != len(stages) {
			t.Fatalf("P=%d dissemination closes after %d stages, want %d", p, got, len(stages))
		}
		if p > 2 && c.Run(stages[:len(stages)-1], nil) >= 0 {
			t.Fatalf("P=%d truncated dissemination should not close", p)
		}
	}
}
