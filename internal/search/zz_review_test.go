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
// examine/undo — climber.step's protocol — and check every score against
// from-scratch computation: a verdict Eq. 3 produced, and equally a verdict
// score elided (an add or append must be a barrier by Schedule.IsBarrier; a
// move may skip Eq. 3 only when its price already rejects it), the cost of
// every priced candidate, that an undo restores the schedule exactly, and the
// incremental state after every accept/undo.
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
			cost, verified := c.examine(m)
			wantB := c.s.IsBarrier()
			switch {
			case verified:
				if gotB := !math.IsInf(cost, 1); gotB != wantB {
					t.Fatalf("p=%d step=%d barrier verdict: incremental=%v scratch=%v\n%s", p, n, gotB, wantB, c.s)
				}
			case m.kind == mutMove:
				if cost <= c.cost {
					t.Fatalf("p=%d step=%d move priced %v ≤ %v skipped Eq. 3", p, n, cost, c.cost)
				}
			default:
				if m.kind == mutRemove || !wantB {
					t.Fatalf("p=%d step=%d kind %d skipped Eq. 3, scratch verdict %v\n%s", p, n, m.kind, wantB, c.s)
				}
			}
			if want := pd.Cost(c.s); !math.IsInf(cost, 1) && cost != want {
				t.Fatalf("p=%d step=%d cost: incremental=%v scratch=%v", p, n, cost, want)
			}
			if cost <= c.cost {
				if !wantB {
					t.Fatalf("p=%d step=%d accepting a non-barrier\n%s", p, n, c.s)
				}
				c.cost = cost
			} else if c.undo(m, verified); !c.s.Equal(before) {
				t.Fatalf("p=%d step=%d kind %d not undone", p, n, m.kind)
			}
			// every few steps, force a Barrier+Cost on the current state and compare
			if n%7 == 0 {
				gotB := c.kc.Barrier(c.s)
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
