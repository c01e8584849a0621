// Large-P scaling benchmarks: the Eq. 3 closure kernels (dense cube vs the
// sparse-frontier engine) at P = 128/256/1024, and end-to-end mutation
// throughput of the cluster-pruned batched search at the same rank counts.
// The acceptance bar for the PR that introduced the frontier engine is a ≥5×
// mutation-throughput advantage over the dense path at P = 256, pinned by
// TestLargePSearchSpeedupFloor.
package topobarrier_test

import (
	"fmt"
	"testing"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
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
// dissemination barrier through the dense O(P³/64) cube (Schedule.Knowledge)
// and the sparse-frontier kernel (mat.FrontierClosure) at large P. Both
// return the same verdict on every schedule — the property tests pin that —
// so the ratio of ns/op between the /dense and /frontier variants of the
// same P is the kernel speedup.
func BenchmarkKnowledgeClosure(b *testing.B) {
	for _, p := range []int{128, 256, 1024} {
		s := sched.Dissemination(p)

		b.Run(fmt.Sprintf("P%d/dense", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ks := s.Knowledge()
				if !ks[len(ks)-1].AllSet() {
					b.Fatal("dissemination must close")
				}
			}
		})

		b.Run(fmt.Sprintf("P%d/frontier", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if !mat.FrontierClosure(s.P, s.Stages) {
					b.Fatal("dissemination must close")
				}
			}
		})
	}
}

// BenchmarkSearchThroughputLargeP reports end-to-end mutation evaluations
// per second of the refinement search in its large-P configuration —
// sparse-frontier knowledge cache, cluster-pruned proposals, best-of-8
// batches — at P = 128/256/1024. Compare mutants/s across the P variants
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
					Seed: uint64(n + 1), Steps: 500, Restarts: 1, Workers: 1,
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

// annealThroughput measures the mutation throughput of a single-worker
// anneal in candidates per second, best of three runs — scheduler noise only
// ever slows a run down, so the fastest observation is the cleanest.
func annealThroughput(t *testing.T, pd *predict.Predictor, seed *sched.Schedule, opts search.AnnealOptions) float64 {
	t.Helper()
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		res, err := search.Anneal(pd, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed <= 0 || res.Examined == 0 {
			t.Fatalf("degenerate run: %d examined in %s", res.Examined, elapsed)
		}
		if tp := float64(res.Examined) / elapsed.Seconds(); tp > best {
			best = tp
		}
	}
	return best
}

// TestLargePSearchSpeedupFloor pins the PR's acceptance bar: at P = 256 the
// sparse-frontier engine must evaluate mutations at least 5× faster than the
// dense-cube engine it replaced on the hot path (2× under the race detector,
// whose per-word instrumentation compresses the gap). The two engines are
// bit-identical — TestAnnealDenseKnowledgeAblationIdentical pins that — so
// the DenseKnowledge ablation knob isolates exactly the kernel swap.
func TestLargePSearchSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor in -short mode")
	}
	p := 256
	pf := scaleProfile(t, p)
	pd := predict.New(pf)
	seed := sched.Dissemination(p)
	clusters := scaleClusters(pf)

	base := search.AnnealOptions{
		Seed: 11, Restarts: 1, Workers: 1,
		Clusters: clusters, BatchSize: 8,
	}
	// The dense engine gets a smaller budget so the measurement stays cheap;
	// throughput is per-candidate, so the budgets need not match.
	dense := base
	dense.Steps = 120
	dense.DenseKnowledge = true
	frontier := base
	frontier.Steps = 2000

	denseTP := annealThroughput(t, pd, seed, dense)
	frontierTP := annealThroughput(t, pd, seed, frontier)
	ratio := frontierTP / denseTP
	floor := 5.0
	if scaleRaceEnabled {
		floor = 2.0
	}
	t.Logf("P=%d mutation throughput: frontier %.0f/s vs dense %.0f/s (%.1f×, floor %.0f×)",
		p, frontierTP, denseTP, ratio, floor)
	perftest.Floor(t, ratio >= floor, "frontier/dense throughput ratio %.2f below the %.0f× floor", ratio, floor)
}
