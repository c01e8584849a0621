package compose

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

// referenceHybrid is the composer as it stood before candidates were priced
// locally and emitted in place: every (cluster × builder) candidate is lifted
// into the P-rank space and priced there, siblings are overlaid with
// MergeEarly, departure is ReverseTransposed of cloned schedules and no-op
// stages are dropped at the end. It is kept as the differential oracle for
// Hybrid: schedule, choices and every cost must agree exactly.
func referenceHybrid(pd *predict.Predictor, tree *sss.Node, builders []sched.Builder) *Result {
	p := pd.Prof.P
	res := &Result{}
	below, rootPhase, rootNeedsDeparture := res.refArrival(pd, tree, builders, p, true)
	full := sched.New("reference", p)
	full.Concat(below)
	full.Concat(rootPhase)
	if rootNeedsDeparture {
		full.Concat(below.Clone().Concat(rootPhase).ReverseTransposed())
	} else {
		full.Concat(below.ReverseTransposed())
	}
	res.Schedule = full.DropEmptyStages()
	res.PredictedCost = pd.Cost(res.Schedule)
	return res
}

func (r *Result) refArrival(pd *predict.Predictor, n *sss.Node, builders []sched.Builder, p int, isRoot bool) (below, own *sched.Schedule, needsDeparture bool) {
	members := n.Ranks
	below = sched.New("children", p)
	if !n.IsLeaf() {
		var parts []*sched.Schedule
		members = nil
		for _, c := range n.Children {
			cb, co, _ := r.refArrival(pd, c, builders, p, false)
			parts = append(parts, cb.Concat(co))
			members = append(members, c.Representative())
		}
		below = sched.MergeEarly("children", p, parts...)
	}
	if len(members) == 1 {
		r.Choices = append(r.Choices, Choice{Ranks: members, Algorithm: "singleton", Root: isRoot})
		return below, sched.New("singleton", p), true
	}
	var (
		best        *sched.Schedule
		bestBuilder sched.Builder
		bestCost    float64
	)
	for _, b := range builders {
		lifted := b.Arrival(len(members)).Lift(p, members)
		cost := pd.ArrivalPhaseCost(lifted, b.NeedsDeparture || !isRoot)
		if best == nil || cost < bestCost {
			best, bestBuilder, bestCost = lifted, b, cost
		}
	}
	r.Choices = append(r.Choices, Choice{Ranks: append([]int(nil), members...), Algorithm: bestBuilder.Name, Cost: bestCost, Root: isRoot})
	return below, best, bestBuilder.NeedsDeparture || !isRoot
}

// assertMatchesReference composes with both and demands exact agreement:
// costs are compared with ==, never a tolerance, because the greedy choice
// breaks ties by builder order and the pinned plan hashes depend on it.
func assertMatchesReference(t *testing.T, pd *predict.Predictor, tree *sss.Node, builders []sched.Builder) *Result {
	t.Helper()
	got, err := Hybrid(pd, tree, builders)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceHybrid(pd, tree, builders)
	if !got.Schedule.Equal(want.Schedule) {
		t.Fatalf("schedule differs from the lift-and-merge reference\ntree %v\ngot  %v\nwant %v", tree, got.Schedule, want.Schedule)
	}
	if !reflect.DeepEqual(got.Choices, want.Choices) {
		t.Fatalf("choices differ\ngot  %+v\nwant %+v", got.Choices, want.Choices)
	}
	if got.PredictedCost != want.PredictedCost {
		t.Fatalf("predicted cost %v, reference %v", got.PredictedCost, want.PredictedCost)
	}
	return got
}

// randomPlatform draws a three-level machine (sockets in nodes, unbalanced,
// no power-of-two sizes on purpose) with per-link jitter, so SSS yields
// ragged trees and candidate costs differ in their low bits.
func randomPlatform(rng *rand.Rand, p int) *profile.Profile {
	node, socket := make([]int, p), make([]int, p)
	for r := 1; r < p; r++ {
		node[r], socket[r] = node[r-1], socket[r-1]
		switch x := rng.Intn(12); {
		case x == 0: // next rank opens a new node
			node[r]++
			socket[r]++
		case x < 4: // or a new socket of the same node
			socket[r]++
		}
	}
	pr := profile.New(fmt.Sprintf("random(%d)", p), p)
	for i := 0; i < p; i++ {
		pr.O.Set(i, i, 0.3e-6*(1+0.1*rng.Float64()))
		for j := i + 1; j < p; j++ {
			o, l := 1e-6, 0.2e-6
			switch {
			case node[i] != node[j]:
				o, l = 50e-6, 4e-6
			case socket[i] != socket[j]:
				o, l = 4e-6, 0.8e-6
			}
			for _, d := range [][2]int{{i, j}, {j, i}} {
				pr.O.Set(d[0], d[1], o*(1+0.05*rng.Float64()))
				pr.L.Set(d[0], d[1], l*(1+0.05*rng.Float64()))
			}
		}
	}
	return pr
}

func TestHybridMatchesLiftAndMergeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	policies := []predict.CostPolicy{predict.FirstStageEq1, predict.AlwaysEq1}
	clusterings := []sss.Options{{}, {MaxDepth: 1}, {MaxDepth: 2}}
	for p := 2; p <= 64; p++ {
		for draw := 0; draw < 3; draw++ {
			pr := randomPlatform(rng, p)
			pd := &predict.Predictor{Prof: pr, Policy: policies[rng.Intn(len(policies))]}
			builders := sched.PaperBuilders()
			if rng.Intn(3) == 0 {
				builders = sched.ExtendedBuilders()
			}
			tree := sss.Tree(pr, clusterings[rng.Intn(len(clusterings))])
			assertMatchesReference(t, pd, tree, builders)
		}
	}
}

// Noise-free presets put whole families of candidates on exactly equal costs,
// which is where a pricing path that is off in the last bit flips a choice.
func TestHybridMatchesReferenceOnPresets(t *testing.T) {
	for _, pl := range []topo.Placement{topo.Block{}, topo.RoundRobin{}} {
		for _, p := range []int{3, 7, 22, 40, 64} {
			pr := quadOracle(t, pl, p)
			for _, opts := range []sss.Options{{}, {MaxDepth: 1}} {
				assertMatchesReference(t, predict.New(pr), sss.Tree(pr, opts), sched.ExtendedBuilders())
			}
		}
	}
	for _, p := range []int{128, 1024} {
		if p == 1024 && testing.Short() {
			continue
		}
		f, err := fabric.ScaleClusterFabric(p, p/32, 1)
		if err != nil {
			t.Fatal(err)
		}
		pr := f.TrueProfile()
		res := assertMatchesReference(t, predict.New(pr), sss.Tree(pr, sss.Options{}), sched.PaperBuilders())
		if len(res.Choices) < p/32 {
			t.Fatalf("P=%d: only %d choices", p, len(res.Choices))
		}
	}
}

// A root-level dissemination needs no departure: the schedule must omit the
// root phase's transposes and still agree with the reference.
func TestHybridRootDisseminationMatchesReference(t *testing.T) {
	pr := quadOracle(t, topo.Block{}, 40)
	res := assertMatchesReference(t, predict.New(pr), sss.Tree(pr, sss.Options{MaxDepth: 1}), sched.PaperBuilders())
	root := res.Choices[len(res.Choices)-1]
	if !root.Root || root.Algorithm != "dissemination" {
		t.Fatalf("root choice %+v, want a dissemination", root)
	}
	// 5 representatives disseminate in 3 stages; mirrored they would be 6.
	var rootStages int
	for _, st := range res.Schedule.Stages {
		cross := false
		st.Each(func(i, j int) { cross = cross || i/8 != j/8 })
		if cross {
			rootStages++
		}
	}
	if rootStages != 3 {
		t.Fatalf("%d cross-node stages, want the 3 of one dissemination", rootStages)
	}
}

// Singletons — a one-rank job, and one-rank clusters under an internal root
// next to a deeper sibling (an unbalanced hand-built tree) — emit no stages
// and must not disturb the stage offsets of their siblings.
func TestHybridSingletonsMatchReference(t *testing.T) {
	one := profile.New("one", 1)
	assertMatchesReference(t, predict.New(one), sss.Tree(one, sss.Options{}), sched.PaperBuilders())

	pr := randomPlatform(rand.New(rand.NewSource(3)), 12)
	leaf := func(r ...int) *sss.Node { return &sss.Node{Ranks: r} }
	tree := &sss.Node{Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, Children: []*sss.Node{
		{Ranks: []int{0, 1, 2, 3, 4, 5, 6}, Children: []*sss.Node{leaf(0, 1, 2, 3, 4), leaf(5), leaf(6)}},
		leaf(7),
		leaf(8, 9, 10, 11),
	}}
	for _, pol := range []predict.CostPolicy{predict.FirstStageEq1, predict.AlwaysEq1} {
		pd := &predict.Predictor{Prof: pr, Policy: pol}
		assertMatchesReference(t, pd, tree, sched.ExtendedBuilders())
	}
}

// Local pricing is only bit-identical to lifted pricing for ascending member
// lists; a tree that breaks SSS's ordering is refused, not silently mispriced.
func TestHybridRejectsUnorderedMembers(t *testing.T) {
	pr := quadOracle(t, topo.Block{}, 8)
	tree := &sss.Node{Ranks: []int{0, 2, 1, 3, 4, 5, 6, 7}}
	_, err := Hybrid(predict.New(pr), tree, sched.PaperBuilders())
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unordered cluster accepted: %v", err)
	}
}

// TestHybridAllocationBound is the composer's deterministic scale guard: at
// P=1024 a stage matrix is 128 KB, the finished schedule holds nine of them,
// and one lifted temporary per (cluster × builder) candidate adds up to
// ≈ 350 MB; priced locally and emitted in place the call allocates ≈ 2.5 MB.
func TestHybridAllocationBound(t *testing.T) {
	f, err := fabric.ScaleClusterFabric(1024, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr := f.TrueProfile()
	pd, tree := predict.New(pr), sss.Tree(pr, sss.Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Hybrid(pd, tree, sched.PaperBuilders()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 10 {
		t.Fatalf("compose.Hybrid at P=1024 allocated %.1f MB, want < 10", mb)
	}
}
