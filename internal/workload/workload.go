// Package workload provides synthetic parallel applications that exercise
// barriers the way the paper's introduction motivates: bulk-synchronous
// compute phases separated by global synchronization, optionally with
// neighbour halo exchanges. It quantifies what a faster barrier buys an
// application — synchronization overhead as a function of compute grain and
// load imbalance ("informing algorithm designs with topological information
// could improve both the application performance and scalability of these
// systems", §VII.C).
package workload

import (
	"fmt"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/stats"
)

// BSPConfig describes a bulk-synchronous workload.
type BSPConfig struct {
	// Iterations is the number of compute+barrier supersteps.
	Iterations int
	// ComputeMean is the mean per-rank compute time per superstep (seconds).
	// 0 produces a pure synchronization benchmark.
	ComputeMean float64
	// Imbalance spreads per-rank compute uniformly in
	// ComputeMean·[1−Imbalance, 1+Imbalance]. Stragglers make barrier wait
	// time, and thus barrier algorithm quality, matter less.
	Imbalance float64
	// HaloBytes, when positive, adds a ring halo exchange (send to both
	// neighbours, receive from both) before each barrier — the paper's
	// stencil-style workload shape.
	HaloBytes int
	// Seed drives the per-rank compute time draws.
	Seed uint64
	// Barrier is the synchronization implementation under test.
	Barrier run.Func
}

// BSPResult summarises one workload execution.
type BSPResult struct {
	// Total is the virtual wall time of the whole run.
	Total float64
	// IdealCompute is the critical-path compute time: the sum over
	// supersteps of the slowest rank's compute. A perfect zero-cost barrier
	// (and free halo exchange) would finish in exactly this time.
	IdealCompute float64
	// Overhead is Total − IdealCompute: everything synchronization and
	// communication cost the application.
	Overhead float64
}

// RunBSP executes the workload on a world and returns its cost breakdown.
func RunBSP(w *mpi.World, cfg BSPConfig) (BSPResult, error) {
	if cfg.Iterations <= 0 {
		return BSPResult{}, fmt.Errorf("workload: non-positive iteration count %d", cfg.Iterations)
	}
	if cfg.Barrier == nil {
		return BSPResult{}, fmt.Errorf("workload: nil barrier")
	}
	if cfg.Imbalance < 0 || cfg.Imbalance > 1 {
		return BSPResult{}, fmt.Errorf("workload: imbalance %g outside [0,1]", cfg.Imbalance)
	}
	p := w.Size()

	// Draw the compute schedule up front (deterministic, and needed for the
	// ideal-time baseline).
	compute := make([][]float64, cfg.Iterations)
	rng := stats.NewRNG(cfg.Seed)
	ideal := 0.0
	for it := range compute {
		compute[it] = make([]float64, p)
		slowest := 0.0
		for r := 0; r < p; r++ {
			c := cfg.ComputeMean
			if cfg.Imbalance > 0 && c > 0 {
				c *= 1 + cfg.Imbalance*(2*rng.Float64()-1)
			}
			compute[it][r] = c
			if c > slowest {
				slowest = c
			}
		}
		ideal += slowest
	}

	total, err := w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		left := (me - 1 + p) % p
		right := (me + 1) % p
		tag := 0
		for it := 0; it < cfg.Iterations; it++ {
			if compute[it][me] > 0 {
				c.Compute(compute[it][me])
			}
			if cfg.HaloBytes > 0 && p > 1 {
				reqs := []*mpi.Request{
					c.Irecv(left, tag+1),
					c.Irecv(right, tag+2),
				}
				if right != left {
					reqs = append(reqs,
						c.Issend(left, tag+2, cfg.HaloBytes),
						c.Issend(right, tag+1, cfg.HaloBytes),
					)
				} else {
					// Two ranks: both neighbours are the same peer.
					reqs = append(reqs,
						c.Issend(left, tag+2, cfg.HaloBytes),
						c.Issend(left, tag+1, cfg.HaloBytes),
					)
				}
				c.Wait(reqs...)
			}
			cfg.Barrier(c, tag+8)
			tag = (tag + run.TagSpan) % (2 * run.TagSpan)
		}
	})
	if err != nil {
		return BSPResult{}, err
	}
	return BSPResult{Total: total, IdealCompute: ideal, Overhead: total - ideal}, nil
}

// Compare runs the same workload with two barrier implementations and
// returns their results; convenient for tuned-vs-baseline studies.
func Compare(w *mpi.World, cfg BSPConfig, a, b run.Func) (ra, rb BSPResult, err error) {
	cfg.Barrier = a
	ra, err = RunBSP(w, cfg)
	if err != nil {
		return
	}
	cfg.Barrier = b
	rb, err = RunBSP(w, cfg)
	return
}
