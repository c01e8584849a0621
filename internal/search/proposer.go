package search

import (
	"fmt"

	"topobarrier/internal/stats"
)

// proposer biases signal-endpoint proposals by cluster structure. The SSS
// decomposition behind good hierarchical barriers keeps almost all traffic
// inside clusters, with leaders carrying the cross-cluster phases — so at
// large P, where the P² endpoint space dwarfs any step budget, uniform
// proposals are almost always wasted on sends no good schedule contains.
// The pruned distribution mirrors that shape:
//
//	~70%  intra-cluster     (both endpoints in one uniformly-drawn cluster)
//	~25%  leader-to-leader  (both endpoints cluster representatives)
//	 ~5%  arbitrary         (any pair — the escape hatch that keeps the
//	                         search ergodic over the full space)
//
// A proposer is immutable after construction and draws only through the
// calling climber's own RNG stream, so cluster pruning keeps the
// portfolio's result independent of GOMAXPROCS.
type proposer struct {
	members [][]int32 // cluster -> ranks
	leaders []int32   // cluster representatives (first rank of each)
}

// newProposer validates that clusters partition 0..p-1 and builds the
// proposer. Fewer than two clusters means the bias would be a no-op, so nil
// (uniform proposals) is returned.
func newProposer(p int, clusters [][]int) (*proposer, error) {
	if len(clusters) == 0 {
		return nil, nil
	}
	seen := make([]bool, p)
	covered := 0
	pr := &proposer{
		members: make([][]int32, 0, len(clusters)),
		leaders: make([]int32, 0, len(clusters)),
	}
	for ci, cl := range clusters {
		if len(cl) == 0 {
			return nil, fmt.Errorf("search: cluster %d is empty", ci)
		}
		ranks := make([]int32, len(cl))
		for x, r := range cl {
			if r < 0 || r >= p {
				return nil, fmt.Errorf("search: cluster %d holds rank %d outside 0..%d", ci, r, p-1)
			}
			if seen[r] {
				return nil, fmt.Errorf("search: rank %d appears in two clusters", r)
			}
			seen[r] = true
			covered++
			ranks[x] = int32(r)
		}
		pr.members = append(pr.members, ranks)
		pr.leaders = append(pr.leaders, ranks[0])
	}
	if covered != p {
		return nil, fmt.Errorf("search: clusters cover %d of %d ranks", covered, p)
	}
	if len(pr.members) < 2 {
		return nil, nil
	}
	return pr, nil
}

// drawPair proposes a signal endpoint pair. Invalid pairs (i == j, possible
// when a singleton cluster is drawn) are handled by the caller the same way
// uniform draws handle them: the attempt is a cheap no-op.
func (pr *proposer) drawPair(rng *stats.RNG, p int) (int, int) {
	d := rng.Intn(20)
	switch {
	case d < 14: // intra-cluster
		c := pr.members[rng.Intn(len(pr.members))]
		return int(c[rng.Intn(len(c))]), int(c[rng.Intn(len(c))])
	case d < 19: // leader-to-leader
		return int(pr.leaders[rng.Intn(len(pr.leaders))]), int(pr.leaders[rng.Intn(len(pr.leaders))])
	default: // arbitrary
		return rng.Intn(p), rng.Intn(p)
	}
}
