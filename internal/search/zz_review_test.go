package search

import (
	"math"
	"testing"

	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// syntheticProfile builds a deterministic heterogeneous profile: jittered
// off-diagonal overheads and latencies so cost comparisons exercise real
// asymmetric values rather than a uniform fabric.
func syntheticProfile(p int, seed uint64) *profile.Profile {
	rng := stats.NewRNG(seed)
	pr := profile.New("synthetic", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				pr.O.Set(i, j, 1e-6)
				continue
			}
			pr.O.Set(i, j, (5+10*rng.Float64())*1e-6)
			pr.L.Set(i, j, (1+4*rng.Float64())*1e-6)
		}
	}
	return pr
}

// Differential stress: drive the climber candidate by candidate through
// climber.step's protocol — examine, then accept or undo — and check every
// score against from-scratch computation: +Inf exactly for a candidate Eq. 3
// rejected (only a remove or move runs it), a finite score only for a barrier
// unless a move's price already rejects it (score then skips Eq. 3), the cost
// of every priced candidate, that an undo restores the schedule exactly, and
// the incremental state after every accept/undo.
func TestReviewDifferentialStress(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13} {
		prof := syntheticProfile(p, 1)
		pd := predict.New(prof)
		seed := sched.Dissemination(p)
		if !seed.IsBarrier() {
			t.Fatalf("seed not barrier")
		}
		maxStages := seed.NumStages() + 3
		rng := stats.NewRNG(42 + uint64(p))
		c := newClimber(pd, seed, pd.Cost(seed), rng, maxStages, nil, 0)
		for n := 0; n < 4000; n++ {
			m, ok := c.draw()
			if !ok {
				continue
			}
			before := c.s.Clone()
			cost := c.examine(m)
			wantB := c.s.IsBarrier()
			switch {
			case math.IsInf(cost, 1):
				if wantB || m.kind == mutAdd || m.kind == mutAppend {
					t.Fatalf("p=%d step=%d kind %d rejected by Eq. 3, scratch verdict %v\n%s", p, n, m.kind, wantB, c.s)
				}
			case !wantB && (m.kind != mutMove || cost <= c.cost):
				t.Fatalf("p=%d step=%d kind %d priced %v (bound %v) but not a barrier\n%s", p, n, m.kind, cost, c.cost, c.s)
			}
			if want := pd.Cost(c.s); !math.IsInf(cost, 1) && cost != want {
				t.Fatalf("p=%d step=%d cost: incremental=%v scratch=%v", p, n, cost, want)
			}
			if cost <= c.cost {
				c.accept(cost)
			} else if c.undo(m); !c.s.Equal(before) {
				t.Fatalf("p=%d step=%d kind %d not undone", p, n, m.kind)
			}
			// every few steps, resume a verdict and price the current state
			if n%7 == 0 {
				gotB := c.know.Resume(c.s.Stages)
				if gotB != c.s.IsBarrier() {
					t.Fatalf("p=%d step=%d post-step barrier mismatch", p, n)
				}
				if gotB {
					got := c.ev.Cost(c.s)
					want := pd.Cost(c.s)
					if got != want {
						t.Fatalf("p=%d step=%d post-step cost mismatch: %v vs %v", p, n, got, want)
					}
				}
			}
		}
	}
}
