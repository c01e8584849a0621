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

// Differential stress: replicate climber.step's protocol but verify the
// incremental Barrier verdict and Cost against from-scratch computation at
// every evaluated candidate AND after every accept/undo.
func TestReviewDifferentialStress(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13} {
		prof := syntheticProfile(p, 1)
		pd := predict.New(prof)
		pd.StageOverhead = 0.1e-6
		seed := sched.Dissemination(p)
		if !seed.IsBarrier() {
			t.Fatalf("seed not barrier")
		}
		maxStages := seed.NumStages() + 3
		z := newZobrist(p, maxStages)
		rng := stats.NewRNG(42 + uint64(p))
		c := newClimber(pd, z, seed, pd.Cost(seed), rng, maxStages, nil, 0)
		for n := 0; n < 4000; n++ {
			m, ok := c.draw()
			if !ok {
				continue
			}
			c.apply(m)
			cost, hit := c.table[c.hash]
			if !hit {
				if c.kc.Barrier(c.s) {
					cost = c.ev.Cost(c.s)
				} else {
					cost = math.Inf(1)
				}
				// cross-check against from-scratch
				wantB := c.s.IsBarrier()
				gotB := !math.IsInf(cost, 1)
				if wantB != gotB {
					t.Fatalf("p=%d step=%d barrier verdict: incremental=%v scratch=%v\n%s", p, n, gotB, wantB, c.s)
				}
				if wantB {
					want := pd.Cost(c.s)
					if cost != want {
						t.Fatalf("p=%d step=%d cost: incremental=%v scratch=%v", p, n, cost, want)
					}
				}
				c.table[c.hash] = cost
			} else {
				// verify the cached entry matches scratch for the current state
				wantB := c.s.IsBarrier()
				if wantB != !math.IsInf(cost, 1) {
					t.Fatalf("p=%d step=%d table verdict mismatch (hash collision?)", p, n)
				}
			}
			if cost <= c.cost {
				c.cost = cost
			} else {
				c.undo(m, !hit)
			}
			// verify hash integrity
			if c.hash != c.z.hashOf(c.s) {
				t.Fatalf("p=%d step=%d hash drift", p, n)
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
