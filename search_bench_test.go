// Benchmarks for the incremental search engine: mutation-evaluation
// throughput against the clone-per-mutant baseline the engine replaced, and
// core scaling of the parallel portfolio. The acceptance bar for the
// engine is a ≥10× single-core throughput advantage at P=16.
package topobarrier_test

import (
	"fmt"
	"runtime"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

func throughputPredictor(b testing.TB, p int) *predict.Predictor {
	b.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		b.Fatal(err)
	}
	return predict.New(f.TrueProfile())
}

// scratchEvaluate replays the seed implementation's per-mutant cost: clone
// the working schedule, toggle one signal, run the Eq. 3 recurrence from
// scratch, and (for barriers) a from-scratch critical-path pass.
func scratchEvaluate(pd *predict.Predictor, s *sched.Schedule, rng *stats.RNG) float64 {
	c := s.Clone()
	k := rng.Intn(c.NumStages())
	i, j := rng.Intn(c.P), rng.Intn(c.P)
	if i == j {
		j = (j + 1) % c.P
	}
	c.Stages[k].Set(i, j, !c.Stages[k].At(i, j))
	if !c.IsBarrier() {
		return 0
	}
	return pd.Cost(c)
}

// BenchmarkSearchThroughput reports mutation evaluations per second for the
// scratch baseline and the incremental engine, at the paper's small-to-mid
// rank counts. Compare the mutants/s metric between the /scratch and
// /incremental variants of the same P.
func BenchmarkSearchThroughput(b *testing.B) {
	for _, p := range []int{8, 16, 32} {
		pd := throughputPredictor(b, p)
		seed := sched.Dissemination(p)

		b.Run(fmt.Sprintf("P%d/scratch", p), func(b *testing.B) {
			rng := stats.NewRNG(1)
			sink := 0.0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sink += scratchEvaluate(pd, seed, rng)
			}
			b.StopTimer()
			_ = sink
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mutants/s")
		})

		b.Run(fmt.Sprintf("P%d/incremental", p), func(b *testing.B) {
			examined := 0
			b.ResetTimer()
			for n := 0; n < b.N; n += 2000 {
				res, err := search.Anneal(pd, seed, search.AnnealOptions{
					Seed: uint64(n + 1), Budget: 2000, Restarts: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				examined += res.Examined
			}
			b.StopTimer()
			b.ReportMetric(float64(examined)/b.Elapsed().Seconds(), "mutants/s")
		})
	}
}

// BenchmarkSearchWorkerScaling runs a fixed 8-restart portfolio at
// GOMAXPROCS 1, 2, 4 and 8; with shared-nothing climbers the speedup should
// track the core count until restarts or cores run out. The tree32 rows are
// the ledger's shape, three restarts on one and two cores, where the
// restarts' yields inside a round are what let the third share the two.
func BenchmarkSearchWorkerScaling(b *testing.B) {
	shapes := []struct {
		name             string
		seed             *sched.Schedule
		restarts, budget int
		procs            []int
	}{
		{"", sched.Dissemination(16), 8, 12000, []int{1, 2, 4, 8}},
		{"tree32/restarts=3/", sched.Tree(32), 3, 30_000, []int{1, 2}},
	}
	for _, sh := range shapes {
		pd := throughputPredictor(b, sh.seed.P)
		for _, procs := range sh.procs {
			b.Run(fmt.Sprintf("%sprocs=%d", sh.name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				examined := 0
				b.ResetTimer()
				cpu := perftest.CPUSeconds(b)
				for n := 0; n < b.N; n++ {
					res, err := search.Anneal(pd, sh.seed, search.AnnealOptions{
						Seed: 3, Budget: sh.budget, Restarts: sh.restarts,
					})
					if err != nil {
						b.Fatal(err)
					}
					examined += res.Examined
				}
				b.StopTimer()
				b.ReportMetric(float64(examined)/b.Elapsed().Seconds(), "mutants/s")
				b.ReportMetric((perftest.CPUSeconds(b)-cpu)/b.Elapsed().Seconds(), "busy-cores")
			})
		}
	}
}

// BenchmarkAnnealColdTree32 is the ledger's search_cold_p32 shape in
// miniature: binomial-tree seed at P=32, three restarts, uniform proposals —
// accept-heavy, where BenchmarkSearchThroughput's dissemination seeds are
// reject-heavy from the first step. busy-cores is the process's CPU time
// over wall time: how much of the box the portfolio keeps working.
func BenchmarkAnnealColdTree32(b *testing.B) {
	pd := throughputPredictor(b, 32)
	seed := sched.Tree(32)
	examined := 0
	b.ResetTimer()
	cpu := perftest.CPUSeconds(b)
	for n := 0; n < b.N; n++ {
		res, err := search.Anneal(pd, seed, search.AnnealOptions{Seed: uint64(n), Budget: 200_000, Restarts: 3})
		if err != nil {
			b.Fatal(err)
		}
		examined += res.Examined
	}
	b.StopTimer()
	b.ReportMetric(float64(examined)/b.Elapsed().Seconds(), "mutants/s")
	b.ReportMetric((perftest.CPUSeconds(b)-cpu)/b.Elapsed().Seconds(), "busy-cores")
}
