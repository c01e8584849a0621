// Package sss implements sparse-spatial-centers clustering (Brisaboa et al.,
// SOFSEM 2008) over the profiled topology metric, as the paper uses it to
// discover the closely-coupled rank subsets of a hierarchical interconnect
// (§VII.A).
//
// SSS only requires a metric: rank 0 seeds the first cluster, and every
// following rank either joins its nearest existing center or — when it is
// farther than sparseness × diameter from all centers — founds a new one.
// Applying the procedure recursively inside each discovered cluster yields a
// topology tree with the most tightly coupled groups toward the leaves.
package sss

import (
	"fmt"
	"sort"

	"topobarrier/internal/profile"
)

// DefaultSparseness is the paper's sparseness parameter: 35 % of diameter.
const DefaultSparseness = 0.35

// Options configures the clustering.
type Options struct {
	// Sparseness is the new-center threshold as a fraction of the cluster's
	// diameter. Zero selects DefaultSparseness.
	Sparseness float64
	// MaxDepth bounds the recursion depth of Tree; 0 means unlimited. A
	// value of 1 reproduces the two-level hierarchy the paper reports on its
	// test systems.
	MaxDepth int
}

func (o Options) sparseness() float64 {
	if o.Sparseness <= 0 {
		return DefaultSparseness
	}
	return o.Sparseness
}

// Node is one cluster of the topology tree. Ranks are sorted ascending; the
// group representative is Ranks[0]. Leaf nodes have no children; an internal
// node's children partition its ranks.
type Node struct {
	Ranks    []int
	Children []*Node
}

// IsLeaf reports whether the node has no sub-clusters.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Representative returns the rank that acts for this cluster at the level
// above (the paper's temporary root).
func (n *Node) Representative() int { return n.Ranks[0] }

// Depth returns the height of the subtree (a leaf has depth 1).
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the leaf clusters left to right.
func (n *Node) Leaves() []*Node {
	if n.IsLeaf() {
		return []*Node{n}
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// String renders the tree as nested rank groups, e.g. "[[0 3] [1 4] [2 5]]".
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("%v", n.Ranks)
	}
	s := "["
	for i, c := range n.Children {
		if i > 0 {
			s += " "
		}
		s += c.String()
	}
	return s + "]"
}

// Flat partitions the given ranks by one SSS pass over the metric dist: a
// rank farther than threshold (sparseness × the subset's diameter) from every
// centre founds a new cluster; the first listed rank seeds the first. dist is
// only asked for rank → centre distances, centre second, so a probe can
// measure a centre's links when the pass first asks about it. Clusters keep
// founding order, ranks sorted; centres[k] is the rank that founded clusters[k].
func Flat(ranks []int, threshold float64, dist func(r, centre int) float64) (clusters [][]int, centres []int) {
	if len(ranks) == 0 {
		return nil, nil
	}
	centres = []int{ranks[0]}
	clusters = [][]int{{ranks[0]}}
	for _, r := range ranks[1:] {
		best, bestDist := -1, 0.0
		for ci, c := range centres {
			d := dist(r, c)
			if best == -1 || d < bestDist {
				best, bestDist = ci, d
			}
		}
		if bestDist > threshold {
			centres = append(centres, r)
			clusters = append(clusters, []int{r})
			continue
		}
		clusters[best] = append(clusters[best], r)
	}
	for _, cl := range clusters {
		sort.Ints(cl)
	}
	return clusters, centres
}

// Tree builds the recursive topology hierarchy over all ranks of the profile.
func Tree(pr *profile.Profile, opts Options) *Node {
	all := make([]int, pr.P)
	for i := range all {
		all[i] = i
	}
	return build(pr, all, opts, 0)
}

func build(pr *profile.Profile, ranks []int, opts Options, depth int) *Node {
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	n := &Node{Ranks: sorted}
	if len(sorted) <= 1 {
		return n
	}
	if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
		return n
	}
	// Stop when no locality difference is left.
	diam := pr.Diameter(sorted)
	if diam <= 0 {
		return n
	}
	clusters, _ := Flat(sorted, opts.sparseness()*diam, pr.Distance)
	if len(clusters) <= 1 {
		return n
	}
	for _, cl := range clusters {
		n.Children = append(n.Children, build(pr, cl, opts, depth+1))
	}
	return n
}
