package search

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

func TestProposerValidation(t *testing.T) {
	if pr, err := newProposer(8, nil); pr != nil || err != nil {
		t.Fatalf("no clusters should mean no proposer, got %v, %v", pr, err)
	}
	if pr, err := newProposer(8, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}); pr != nil || err != nil {
		t.Fatalf("single cluster should disable the bias, got %v, %v", pr, err)
	}
	pr, err := newProposer(8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil || pr == nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if len(pr.leaders) != 2 || pr.leaders[0] != 0 || pr.leaders[1] != 4 {
		t.Fatalf("leaders %v, want [0 4]", pr.leaders)
	}
	for _, bad := range [][][]int{
		{{0, 1}, {}},                  // empty cluster
		{{0, 1}, {2, 8}},              // rank out of range
		{{0, 1, 2}, {2, 3, 4, 5, 6}},  // duplicate rank
		{{0, 1, 2}, {4, 5, 6, 7}},     // rank 3 uncovered
		{{0, 1, 2, 3}, {4, 5, 6, -1}}, // negative rank
	} {
		if _, err := newProposer(8, bad); err == nil {
			t.Fatalf("invalid clusters %v accepted", bad)
		}
	}
}

// TestProposerDistribution pins the pruned shape: the overwhelming majority
// of proposals must stay inside one cluster or connect two leaders, with only
// a thin arbitrary tail keeping the search ergodic.
func TestProposerDistribution(t *testing.T) {
	p := 32
	clusters := [][]int{}
	for c := 0; c < 4; c++ {
		cl := []int{}
		for r := 0; r < 8; r++ {
			cl = append(cl, c*8+r)
		}
		clusters = append(clusters, cl)
	}
	pr, err := newProposer(p, clusters)
	if err != nil {
		t.Fatal(err)
	}
	isLeader := func(r int) bool { return r%8 == 0 }
	rng := stats.NewRNG(99)
	const draws = 20000
	intra, leader, other := 0, 0, 0
	for n := 0; n < draws; n++ {
		i, j := pr.drawPair(rng, p)
		switch {
		case i/8 == j/8:
			intra++
		case isLeader(i) && isLeader(j):
			leader++
		default:
			other++
		}
	}
	// Nominal shares are 70/25/5; leader pairs inside one cluster count as
	// intra above, and arbitrary draws land anywhere, so assert loose bands.
	if intra < draws*55/100 {
		t.Fatalf("only %d/%d intra-cluster proposals", intra, draws)
	}
	if leader < draws*10/100 {
		t.Fatalf("only %d/%d leader-to-leader proposals", leader, draws)
	}
	if other == 0 {
		t.Fatalf("no arbitrary proposals — the search lost ergodicity")
	}
	if other > draws*10/100 {
		t.Fatalf("%d/%d proposals escaped the pruned space", other, draws)
	}
}

func TestAnnealRejectsInvalidClusters(t *testing.T) {
	pd := clusteredPredictor(t, 12)
	opts := AnnealOptions{Seed: 1, Budget: 30, Clusters: [][]int{{0, 1, 2}, {3, 4, 5}}}
	if _, err := Anneal(pd, sched.Tree(12), opts); err == nil {
		t.Fatalf("partition covering 6 of 12 ranks accepted")
	}
}

// TestAnnealClusterPrunedWorkerIndependence is the determinism pin for the
// large-P configuration: cluster-pruned proposals plus batched evaluation
// must produce bit-identical results at any GOMAXPROCS.
func TestAnnealClusterPrunedWorkerIndependence(t *testing.T) {
	p := 16
	pd := clusteredPredictor(t, p)
	seed := sched.Tree(p)
	clusters := [][]int{}
	for c := 0; c < 4; c++ {
		clusters = append(clusters, []int{c * 4, c*4 + 1, c*4 + 2, c*4 + 3})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		res, err := Anneal(pd, seed, AnnealOptions{
			Seed: 21, Budget: 3600, Restarts: 3,
			Clusters: clusters, BatchSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedule.IsBarrier() {
			t.Fatalf("GOMAXPROCS=%d: result not a barrier", procs)
		}
		if res.Cost > pd.Cost(seed) {
			t.Fatalf("GOMAXPROCS=%d: worse than seed (%g vs %g)", procs, res.Cost, pd.Cost(seed))
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Cost != ref.Cost || res.Examined != ref.Examined || !res.Schedule.Equal(ref.Schedule) {
			t.Fatalf("GOMAXPROCS=%d diverged from GOMAXPROCS=1: cost %g vs %g, examined %d vs %d",
				procs, res.Cost, ref.Cost, res.Examined, ref.Examined)
		}
	}
}

// TestAnnealSlicedRoundsWorkerIndependence pins the determinism contract
// where restarts yield their cores inside a round and so move between them:
// best-of-5 batches (5 does not divide the yield interval), 1043 steps per
// restart (a multiple of neither exchangeEvery nor the batch), so the rounds
// are 500, 500 and 43 steps, the last shorter than one yield interval. Every
// GOMAXPROCS must match GOMAXPROCS=1 bit for bit, and GOMAXPROCS=1 must match
// the result recorded when each restart ran its rounds whole: a round climbed
// in pieces that end inside a batch would cut the batches elsewhere and move
// it.
func TestAnnealSlicedRoundsWorkerIndependence(t *testing.T) {
	pd := clusteredPredictor(t, 16)
	seed := sched.Tree(16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		res, err := Anneal(pd, seed, AnnealOptions{
			Seed: 9, Budget: 3 * 1043, Restarts: 3, BatchSize: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			data, err := json.Marshal(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got := fmt.Sprintf("%x %#x %d", sum[:8], math.Float64bits(res.Cost), res.Examined)
			if want := "13e44f6d22748d13 0x3f145e5bd5e9ac00 2020"; got != want {
				t.Fatalf("GOMAXPROCS=1 moved from the whole-round result: got %s, want %s", got, want)
			}
			continue
		}
		if math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) || res.Examined != ref.Examined || !res.Schedule.Equal(ref.Schedule) {
			t.Fatalf("GOMAXPROCS=%d diverged from GOMAXPROCS=1: cost %g vs %g, examined %d vs %d",
				procs, res.Cost, ref.Cost, res.Examined, ref.Examined)
		}
	}
}
