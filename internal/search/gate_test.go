package search

import (
	"fmt"
	"math"
	"testing"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// The score-everything reference: candidate scoring as it was before score
// became per-kind — every candidate goes through Eq. 3, and through the
// evaluator when it is a barrier. It lives only here, as what the lockstep
// test holds the gated climber to.

func refExamine(c *climber, m mutation) float64 {
	c.apply(m)
	c.examined++
	if c.know.Resume(c.s.Stages) {
		return c.ev.Cost(c.s)
	}
	return math.Inf(1)
}

func refStep(c *climber) {
	m, ok := c.draw()
	if !ok {
		return
	}
	if cost := refExamine(c, m); cost <= c.cost {
		c.accept(cost)
	} else {
		c.undo(m)
	}
}

func refStepBatch(c *climber, b int) {
	var bestM mutation
	bestCost := math.Inf(1)
	found := false
	for n := 0; n < b; n++ {
		m, ok := c.draw()
		if !ok {
			continue
		}
		cost := refExamine(c, m)
		if !found || cost < bestCost {
			found, bestM, bestCost = true, m, cost
		}
		c.undo(m)
	}
	if found && bestCost <= c.cost {
		c.apply(bestM)
		c.accept(bestCost)
	}
}

// chunkClusters partitions 0..p-1 into contiguous clusters of four.
func chunkClusters(p int) [][]int {
	var clusters [][]int
	for r := 0; r < p; r++ {
		if r%4 == 0 {
			clusters = append(clusters, nil)
		}
		clusters[len(clusters)-1] = append(clusters[len(clusters)-1], r)
	}
	return clusters
}

// TestGatedClimberLockstep runs the real stepBatch, at b = 1 and 8, against
// the score-everything reference from the same RNG seed and requires, after
// every step, the same working schedule, the same cost bits and the same
// examined / accept counts — i.e. the same decision on every candidate — and that
// whatever the gated climber kept without running Eq. 3 is a barrier by the
// from-scratch recurrence.
func TestGatedClimberLockstep(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 32, 65, 130} {
		pd := predict.New(syntheticProfile(p, uint64(p)))
		for _, mode := range []string{"uniform", "clustered", "batch8"} {
			var prop *proposer
			batch := 0
			switch mode {
			case "clustered":
				var err error
				if prop, err = newProposer(p, chunkClusters(p)); err != nil {
					t.Fatal(err)
				}
			case "batch8":
				batch = 8
			}
			for _, seed := range []*sched.Schedule{sched.Tree(p), sched.Dissemination(p)} {
				t.Run(fmt.Sprintf("P%d/%s/%s", p, mode, seed.Name), func(t *testing.T) {
					lockstep(t, pd, seed, prop, batch)
				})
			}
		}
	}
}

func lockstep(t *testing.T, pd *predict.Predictor, seed *sched.Schedule, prop *proposer, batch int) {
	p := seed.P
	maxStages := seed.NumStages() + 2
	cost := pd.Cost(seed)
	gated := newClimber(pd, seed, cost, stats.NewRNG(uint64(77+p)), maxStages, prop, batch)
	ref := newClimber(pd, seed, cost, stats.NewRNG(uint64(77+p)), maxStages, prop, batch)
	steps := 6000
	if p > 64 {
		steps = 1500
	}
	if batch > 1 {
		steps /= 4 // a batch step examines up to batch candidates
	}
	for n := 0; n < steps; n++ {
		accepts := gated.accepts
		if batch > 1 {
			gated.stepBatch(batch)
			refStepBatch(ref, batch)
		} else {
			gated.stepBatch(1)
			refStep(ref)
		}
		if !gated.s.Equal(ref.s) || math.Float64bits(gated.cost) != math.Float64bits(ref.cost) ||
			gated.examined != ref.examined || gated.accepts != ref.accepts ||
			math.Float64bits(gated.bestCost) != math.Float64bits(ref.bestCost) {
			t.Fatalf("step %d diverged: same schedule %v cost %v/%v examined %d/%d accepts %d/%d best %v/%v",
				n, gated.s.Equal(ref.s), gated.cost, ref.cost, gated.examined, ref.examined,
				gated.accepts, ref.accepts, gated.bestCost, ref.bestCost)
		}
		if gated.accepts != accepts && !gated.s.IsBarrier() {
			t.Fatalf("step %d: kept a non-barrier:\n%s", n, gated.s)
		}
	}
	if !gated.best.Equal(ref.best) {
		t.Fatalf("best schedule differs from the reference at the end")
	}
	if gated.examined == 0 {
		t.Fatalf("no candidate was examined")
	}
}
