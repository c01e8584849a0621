// Stencil is the application-level motivation study: a bulk-synchronous
// stencil-style workload (compute, ring halo exchange, global barrier per
// superstep) run with the topology-tuned barrier and with the MPI tree
// barrier, across compute grain sizes. At fine grain the barrier dominates
// and the tuned hybrid buys real application time; as grain grows the
// advantage amortises away — quantifying when the paper's optimization
// matters to an application ("informing algorithm designs with topological
// information could improve both the application performance and
// scalability of these systems", §VII.C).
package main

import (
	"fmt"
	"log"

	"topobarrier"
	"topobarrier/internal/run"
	"topobarrier/internal/stats"
)

func main() {
	const p = 48
	fab, err := topobarrier.NewFabric(
		topobarrier.HexCluster(), topobarrier.RoundRobin{}, p, topobarrier.GigEParams(11))
	if err != nil {
		log.Fatal(err)
	}
	world := topobarrier.NewWorld(fab)

	cfg := topobarrier.DefaultProbe()
	cfg.Replicate = true
	tuned, err := topobarrier.ProfileAndTune(world, cfg, topobarrier.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stencil workload, %d ranks on %s\n", p, fab.Spec().Name)
	fmt.Printf("%12s %14s %14s %14s %10s\n",
		"grain", "hybrid total", "MPI total", "overhead cut", "app gain")

	for _, grain := range []float64{0, 20e-6, 100e-6, 500e-6, 5e-3} {
		wl := bspConfig{
			Iterations:  40,
			ComputeMean: grain,
			Imbalance:   0.2,
			HaloBytes:   2048,
			Seed:        3,
		}
		var res [2]bspResult
		for i, b := range []topobarrier.BarrierFunc{tuned.Func(), topobarrier.MPIBarrier} {
			wl.Barrier = b
			if res[i], err = runBSP(world, wl); err != nil {
				log.Fatal(err)
			}
		}
		hybrid, mpiTree := res[0], res[1]
		cut := mpiTree.Overhead - hybrid.Overhead
		gain := (mpiTree.Total - hybrid.Total) / mpiTree.Total * 100
		fmt.Printf("%10.0fµs %12.2fms %12.2fms %12.1fµs %9.1f%%\n",
			grain*1e6, hybrid.Total*1e3, mpiTree.Total*1e3, cut*1e6, gain)
	}
	fmt.Println("\nfine-grained supersteps inherit the full barrier speedup;")
	fmt.Println("coarse grains amortise synchronization and the gap closes.")
}

// bspConfig describes a bulk-synchronous workload.
type bspConfig struct {
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
	Barrier topobarrier.BarrierFunc
}

// bspResult summarises one workload execution.
type bspResult struct {
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

// runBSP executes the workload on a world and returns its cost breakdown.
func runBSP(w *topobarrier.World, cfg bspConfig) (bspResult, error) {
	if cfg.Iterations <= 0 {
		return bspResult{}, fmt.Errorf("workload: non-positive iteration count %d", cfg.Iterations)
	}
	if cfg.Barrier == nil {
		return bspResult{}, fmt.Errorf("workload: nil barrier")
	}
	if cfg.Imbalance < 0 || cfg.Imbalance > 1 {
		return bspResult{}, fmt.Errorf("workload: imbalance %g outside [0,1]", cfg.Imbalance)
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

	// Each rank's program, superstep by superstep: its compute, the halo
	// exchange with both ring neighbours (one step: every receive and send
	// under one tag, neighbours told apart by source), then the barrier's
	// steps, each superstep on the other of two tag windows.
	progs := make([]topobarrier.Program, p)
	for me := range progs {
		left, right := (me-1+p)%p, (me+1)%p
		barrier := cfg.Barrier(me, p)
		var steps []topobarrier.Step
		tag := 0
		for it := 0; it < cfg.Iterations; it++ {
			if compute[it][me] > 0 {
				steps = append(steps, topobarrier.Step{Compute: compute[it][me]})
			}
			if cfg.HaloBytes > 0 && p > 1 {
				steps = append(steps, topobarrier.Step{Tag: tag + 1,
					Recvs: []int{left, right}, Sends: []int{left, right}, Bytes: cfg.HaloBytes})
			}
			for _, st := range barrier {
				st.Tag += tag + 8
				steps = append(steps, st)
			}
			tag = (tag + run.TagSpan) % (2 * run.TagSpan)
		}
		progs[me].Steps = steps
	}
	total, err := w.Run(progs)
	if err != nil {
		return bspResult{}, err
	}
	return bspResult{Total: total, IdealCompute: ideal, Overhead: total - ideal}, nil
}
