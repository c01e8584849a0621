// Large-P scaling benchmarks: the Eq. 3 closure (the from-scratch row-wise
// reference vs the receiver-wise mat.Closure kernel) at P = 128/256/1024, and
// end-to-end mutation throughput of the cluster-pruned batched search at the
// same rank counts, and the SSS tree, the composer and the whole budgeted
// tune at P = 256/1024. TestLargePSearchSpeedupFloor pins the search's advantage over
// clone-and-recompute evaluation at P = 256; TestTuneAllocationBoundLargeP
// pins the tune's output-sensitivity without a wall clock.
package topobarrier_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"topobarrier/internal/compose"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
	"topobarrier/internal/stats"
)

// scaleProfile builds the noise-free profile of the synthetic hierarchical
// cluster at p ranks (about one dual-socket node per 32 ranks).
func scaleProfile(tb testing.TB, p int) *profile.Profile {
	tb.Helper()
	nodes := (p + 31) / 32
	if nodes < 1 {
		nodes = 1
	}
	f, err := fabric.ScaleClusterFabric(p, nodes, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return f.TrueProfile()
}

// scaleClusters extracts the SSS leaf partition of a profile — the structure
// the cluster-pruned proposer biases mutations by.
func scaleClusters(pf *profile.Profile) [][]int {
	var clusters [][]int
	for _, leaf := range sss.Tree(pf, sss.Options{}).Leaves() {
		clusters = append(clusters, leaf.Ranks)
	}
	return clusters
}

// BenchmarkKnowledgeClosure compares one full Eq. 3 closure verification of a
// dissemination barrier through the from-scratch O(P³/64) reference
// (Schedule.Knowledge) and the one non-incremental kernel, mat.Closure, as
// Schedule.IsBarrier calls it (a fresh closure per verdict), at large P. Both
// return the same verdict on every schedule — mat's property tests and
// analyze's fuzz target pin that — so the ratio of ns/op between the
// /scratch and /frontier variants of the same P is the kernel speedup.
func BenchmarkKnowledgeClosure(b *testing.B) {
	for _, p := range []int{128, 256, 1024} {
		s := sched.Dissemination(p)

		b.Run(fmt.Sprintf("P%d/scratch", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ks := s.Knowledge()
				if ks[len(ks)-1].Count() != p*p {
					b.Fatal("dissemination must close")
				}
			}
		})

		b.Run(fmt.Sprintf("P%d/frontier", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if mat.NewClosure(s.P).Run(s.Stages, nil) < 0 {
					b.Fatal("dissemination must close")
				}
			}
		})
	}
}

// BenchmarkSearchThroughputLargeP reports end-to-end mutation evaluations
// per second of the refinement search in its large-P configuration —
// cluster-pruned proposals, best-of-8 batches — at P = 128/256/1024. Compare mutants/s across the P variants
// for the engine's scaling curve.
func BenchmarkSearchThroughputLargeP(b *testing.B) {
	for _, p := range []int{128, 256, 1024} {
		pf := scaleProfile(b, p)
		pd := predict.New(pf)
		seed := sched.Dissemination(p)
		clusters := scaleClusters(pf)

		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			examined := 0
			b.ResetTimer()
			for n := 0; n < b.N; n += 500 {
				res, err := search.Anneal(pd, seed, search.AnnealOptions{
					Seed: uint64(n + 1), Budget: 500, Restarts: 1,
					Clusters: clusters, BatchSize: 8,
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

// ledgerTuneOptions is the tuner configuration of the ledger's
// tune_scale_p1024 workload (bench/workloads.go).
var ledgerTuneOptions = core.Options{Refine: 400, RefineBatch: 8, RefineSeed: 16}

// BenchmarkTuneLargeP times one whole budgeted tune — profile in hand to
// verified plan in hand — the span the ledger reports as tune_s.
func BenchmarkTuneLargeP(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pf := scaleProfile(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Tune(pf, ledgerTuneOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComposeHybrid times the greedy composer alone over the SSS tree.
func BenchmarkComposeHybrid(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pf := scaleProfile(b, p)
			pd := predict.New(pf)
			tree := sss.Tree(pf, sss.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compose.Hybrid(pd, tree, sched.PaperBuilders()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSSTreeLargeP times the SSS clustering alone — the tiled diameter
// scan of every level plus the centre passes — the span the ledger reports
// as sss.tree_ms.
func BenchmarkSSSTreeLargeP(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pf := scaleProfile(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(sss.Tree(pf, sss.Options{}).Leaves()) < 2 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// TestTuneAllocationBoundLargeP is the deterministic scale guard of the
// compose → vet → compile path: a P=1024 stage matrix is 128 KB, so a tune
// that materialises one per (cluster × builder) candidate allocates 406 MB
// where the output-sensitive path allocates 31 MB (the composed schedule,
// the anneal's working copies and the compiled plan). A reintroduced P×P
// temporary per candidate, or a knowledge closure whose level store (the
// accepted schedule's levels plus the candidate's scratch levels, 128 KB
// each at P = 1024) is reallocated per verdict rather than grown once, fails
// here rather than in a ledger run.
func TestTuneAllocationBoundLargeP(t *testing.T) {
	pf := scaleProfile(t, 1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.Tune(pf, ledgerTuneOptions); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("core.Tune at P=1024 allocated %.1f MB", mb)
	if mb >= 48 {
		t.Fatalf("core.Tune at P=1024 allocated %.1f MB, want < 48", mb)
	}
}

// TestLargePSearchSpeedupFloor pins the reason the incremental engine exists
// at large P: at P = 256 the search (Eq. 3 resumed from the accepted
// schedule's levels, cluster-pruned proposals, best-of-8 batches) must
// evaluate mutations at least 3× faster than scratchEvaluate, the clone →
// toggle → from-scratch IsBarrier → pd.Cost baseline of search_bench_test.go
// (2× under the race detector; measured 5.4–7.5× and 5.9× on the 2-core
// build box). Each side is the best of three
// runs — scheduler noise only ever slows a run down, so the fastest
// observation is the cleanest.
func TestLargePSearchSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor in -short mode")
	}
	p := 256
	pf := scaleProfile(t, p)
	pd := predict.New(pf)
	seed := sched.Dissemination(p)
	opts := search.AnnealOptions{
		Seed: 11, Budget: 2000, Restarts: 1,
		Clusters: scaleClusters(pf), BatchSize: 8,
	}

	var scratchTP, searchTP float64
	for trial := 0; trial < 3; trial++ {
		const mutants = 60
		rng := stats.NewRNG(uint64(trial + 1))
		start := time.Now()
		for n := 0; n < mutants; n++ {
			scratchEvaluate(pd, seed, rng)
		}
		scratchTP = max(scratchTP, mutants/time.Since(start).Seconds())

		start = time.Now()
		res, err := search.Anneal(pd, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Examined == 0 {
			t.Fatalf("degenerate run: nothing examined")
		}
		searchTP = max(searchTP, float64(res.Examined)/time.Since(start).Seconds())
	}
	ratio := searchTP / scratchTP
	floor := 3.0
	if perftest.RaceEnabled {
		floor = 2.0
	}
	t.Logf("P=%d mutation throughput: search %.0f/s vs scratch %.0f/s (%.1f×, floor %.0f×)",
		p, searchTP, scratchTP, ratio, floor)
	perftest.Floor(t, ratio >= floor, "search/scratch throughput ratio %.2f below the %.0f× floor", ratio, floor)
}
