package sss

import (
	"sort"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/profile"
	"topobarrier/internal/topo"
)

// quadProfile is the oracle profile of the paper's quad cluster placed with
// the given placement.
func quadProfile(t testing.TB, pl topo.Placement, p int) *profile.Profile {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), pl, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return f.TrueProfile()
}

// flatOf is one SSS pass over the profile's own metric; it also holds Flat to
// its centre contract: centres[k] founded, and belongs to, clusters[k].
func flatOf(t *testing.T, pr *profile.Profile, ranks []int, threshold float64) [][]int {
	t.Helper()
	clusters, centres := Flat(ranks, threshold, pr.Distance)
	if len(centres) != len(clusters) {
		t.Fatalf("%d centres for %d clusters", len(centres), len(clusters))
	}
	for k, c := range centres {
		if i := sort.SearchInts(clusters[k], c); i == len(clusters[k]) || clusters[k][i] != c {
			t.Fatalf("centre %d is not in its cluster %v", c, clusters[k])
		}
	}
	return clusters
}

func nodesOf(t *testing.T, clusters [][]int, pr *profile.Profile) {
	t.Helper()
	for _, cl := range clusters {
		for _, a := range cl {
			for _, b := range cl {
				if pr.Distance(a, b) > 10e-6 {
					t.Fatalf("cluster %v spans a slow link (%d,%d)", cl, a, b)
				}
			}
		}
	}
}

func TestFlatFindsNodeClustersBlock(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 24) // 3 nodes of 8
	all := make([]int, 24)
	for i := range all {
		all[i] = i
	}
	clusters := flatOf(t, pr, all, DefaultSparseness*pr.Diameter(all))
	if len(clusters) != 3 {
		t.Fatalf("found %d clusters, want 3 nodes: %v", len(clusters), clusters)
	}
	nodesOf(t, clusters, pr)
	// Block placement: node k holds ranks 8k..8k+7.
	for k, cl := range clusters {
		if len(cl) != 8 || cl[0] != k*8 {
			t.Fatalf("cluster %d = %v", k, cl)
		}
	}
}

func TestFlatFindsNodeClustersRoundRobin(t *testing.T) {
	pr := quadProfile(t, topo.RoundRobin{}, 22) // 3 nodes, the Figure 10 case
	all := make([]int, 22)
	for i := range all {
		all[i] = i
	}
	clusters := flatOf(t, pr, all, DefaultSparseness*pr.Diameter(all))
	if len(clusters) != 3 {
		t.Fatalf("found %d clusters, want 3: %v", len(clusters), clusters)
	}
	nodesOf(t, clusters, pr)
	// Round-robin: rank r lives on node r mod 3; cluster of rank 0 must be
	// {0, 3, 6, ...}.
	want := []int{0, 3, 6, 9, 12, 15, 18, 21}
	got := clusters[0]
	if len(got) != len(want) {
		t.Fatalf("cluster 0 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cluster 0 = %v, want %v", got, want)
		}
	}
}

func TestFlatSingletonAndEmpty(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 8)
	if got := flatOf(t, pr, []int{5}, 0.35*pr.Diameter([]int{5})); len(got) != 1 || got[0][0] != 5 {
		t.Fatalf("singleton clustering = %v", got)
	}
	if got := flatOf(t, pr, nil, 0.35*pr.Diameter(nil)); got != nil {
		t.Fatalf("empty clustering = %v", got)
	}
}

func TestFlatUniformDistancesSplitToSingletons(t *testing.T) {
	pr := profile.New("uniform", 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				pr.O.Set(i, j, 10e-6)
			}
		}
	}
	all := []int{0, 1, 2, 3, 4}
	clusters := flatOf(t, pr, all, 0.35*pr.Diameter(all))
	if len(clusters) != 5 {
		t.Fatalf("uniform profile produced %d clusters, want 5 singletons", len(clusters))
	}
}

func TestTreeHierarchyOnQuadCluster(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 32) // 4 nodes
	root := Tree(pr, Options{})
	if root.IsLeaf() {
		t.Fatalf("root is a leaf")
	}
	if len(root.Children) != 4 {
		t.Fatalf("top level has %d clusters, want 4 nodes", len(root.Children))
	}
	// All 32 ranks present exactly once across the leaves.
	seen := map[int]bool{}
	for _, leaf := range root.Leaves() {
		for _, r := range leaf.Ranks {
			if seen[r] {
				t.Fatalf("rank %d in two leaves", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 32 {
		t.Fatalf("leaves cover %d ranks", len(seen))
	}
	// The quad node exposes cache-pair locality below node level, so the
	// tree should be deeper than two levels with unlimited depth.
	if root.Depth() < 3 {
		t.Fatalf("depth = %d, expected sub-node locality to split further", root.Depth())
	}
}

func TestTreeMaxDepthTwoLevel(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 32)
	root := Tree(pr, Options{MaxDepth: 1})
	if root.Depth() != 2 {
		t.Fatalf("depth = %d, want 2 (the paper's reported hierarchy)", root.Depth())
	}
	for _, c := range root.Children {
		if !c.IsLeaf() {
			t.Fatalf("child not leaf under MaxDepth=1")
		}
	}
}

func TestTreeSingleRank(t *testing.T) {
	pr := profile.New("one", 1)
	root := Tree(pr, Options{})
	if !root.IsLeaf() || len(root.Ranks) != 1 {
		t.Fatalf("1-rank tree wrong: %v", root)
	}
	if root.Representative() != 0 {
		t.Fatalf("representative = %d", root.Representative())
	}
}

func TestRepresentativeIsLowestRank(t *testing.T) {
	pr := quadProfile(t, topo.RoundRobin{}, 22)
	root := Tree(pr, Options{MaxDepth: 1})
	reps := map[int]bool{}
	for _, c := range root.Children {
		reps[c.Representative()] = true
		sorted := append([]int(nil), c.Ranks...)
		sort.Ints(sorted)
		if c.Ranks[0] != sorted[0] {
			t.Fatalf("ranks not sorted: %v", c.Ranks)
		}
	}
	// With round-robin over 3 nodes, the lowest ranks per node are 0, 1, 2.
	for _, want := range []int{0, 1, 2} {
		if !reps[want] {
			t.Fatalf("representatives %v missing %d", reps, want)
		}
	}
}

func TestStringRendersNesting(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 16)
	root := Tree(pr, Options{MaxDepth: 1})
	s := root.String()
	if !strings.HasPrefix(s, "[[") || !strings.Contains(s, "15") {
		t.Fatalf("tree dump = %s", s)
	}
}

func TestSparsenessExtremes(t *testing.T) {
	pr := quadProfile(t, topo.Block{}, 16)
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	// Sparseness 1: nothing exceeds the diameter, so one cluster remains.
	one := flatOf(t, pr, all, 1.0*pr.Diameter(all))
	if len(one) != 1 {
		t.Fatalf("near-1 sparseness produced %d clusters", len(one))
	}
	// Tiny sparseness: everything splits apart.
	many := flatOf(t, pr, all, 1e-9*pr.Diameter(all))
	if len(many) != 16 {
		t.Fatalf("tiny sparseness produced %d clusters", len(many))
	}
}

// referenceTree is build with the pairwise diameter Profile.Diameter's tiled
// scan replaced: the largest Distance over the subset, one pair at a time.
func referenceTree(pr *profile.Profile, ranks []int, opts Options, depth int) *Node {
	n := &Node{Ranks: ranks}
	if len(ranks) <= 1 || (opts.MaxDepth > 0 && depth >= opts.MaxDepth) {
		return n
	}
	diam := 0.0
	for a := range ranks {
		for _, j := range ranks[a+1:] {
			diam = max(diam, pr.Distance(ranks[a], j))
		}
	}
	if diam <= 0 {
		return n
	}
	clusters, _ := Flat(ranks, opts.sparseness()*diam, pr.Distance)
	if len(clusters) <= 1 {
		return n
	}
	for _, cl := range clusters {
		n.Children = append(n.Children, referenceTree(pr, cl, opts, depth+1))
	}
	return n
}

// TestTreeMatchesPairwiseDiameter: the tiled diameter changes no threshold,
// so no tree — at the ledger's P = 1024 scale cluster or on the paper's quad
// cluster — differs from the one the pairwise scan builds.
func TestTreeMatchesPairwiseDiameter(t *testing.T) {
	f, err := fabric.ScaleClusterFabric(1024, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, pr := range map[string]*profile.Profile{"scale P=1024": f.TrueProfile(), "quad P=64": quadProfile(t, topo.Block{}, 64)} {
		all := make([]int, pr.P)
		for i := range all {
			all[i] = i
		}
		got, want := Tree(pr, Options{}), referenceTree(pr, all, Options{}, 0)
		if got.String() != want.String() {
			t.Fatalf("%s: Tree %s, pairwise reference %s", name, got, want)
		}
		if len(got.Leaves()) < 2 {
			t.Fatalf("%s: tree %s has no hierarchy to compare", name, got)
		}
	}
}

func TestOptionsDefaultSparseness(t *testing.T) {
	if (Options{}).sparseness() != DefaultSparseness {
		t.Fatalf("default sparseness wrong")
	}
	if (Options{Sparseness: 0.5}).sparseness() != 0.5 {
		t.Fatalf("explicit sparseness ignored")
	}
}

func BenchmarkTree64(b *testing.B) {
	f, err := fabric.New(topo.QuadCluster(), topo.Block{}, 64, fabric.GigEParams(1))
	if err != nil {
		b.Fatal(err)
	}
	pr := f.TrueProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Tree(pr, Options{})
	}
}
