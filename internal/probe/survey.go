package probe

import (
	"fmt"
	"math"

	"topobarrier/internal/mat"
	"topobarrier/internal/profile"
	"topobarrier/internal/sss"
)

const (
	denseLimit    = 16   // the largest rank set measured all-pairs
	spotTolerance = 0.25 // how far a spot check may miss its estimate
)

// survey decides which pairs a probe measures, whatever runtime is under it:
// measure runs one phase, handing O and L of every listed pair to set (and
// may hand it a rank's Oii as the pair (i, i)).
type survey struct {
	pf      *profile.Profile
	measure func(pairs []Pair, set func(i, j int, o, l float64)) error
	// known and est are symmetric and disjoint: the off-diagonal entries that
	// hold a measured (or replicated) value, and those that hold an estimate.
	known, est            *mat.Bool
	spotChecked, refilled int // sibling blocks checked, and measured in full
}

// set writes both directions of a pair and records whether it is an estimate.
func (s *survey) set(i, j int, o, l float64, estimate bool) {
	for _, e := range [2][2]int{{i, j}, {j, i}} {
		s.pf.O.Set(e[0], e[1], o)
		s.pf.L.Set(e[0], e[1], l)
		s.known.Set(e[0], e[1], !estimate)
		s.est.Set(e[0], e[1], estimate)
	}
}

// phase measures, in the order given, the listed pairs not measured yet.
func (s *survey) phase(pairs []Pair) error {
	todo := make([]Pair, 0, len(pairs))
	for _, pr := range pairs {
		if !s.known.At(pr.I, pr.J) {
			todo = append(todo, Pair{min(pr.I, pr.J), max(pr.I, pr.J)})
		}
	}
	if len(todo) == 0 {
		return nil
	}
	return s.measure(todo, func(i, j int, o, l float64) { s.set(i, j, o, l, false) })
}

// dense measures every pair of ranks, in tournament order.
func (s *survey) dense(ranks []int) error {
	var pairs []Pair
	for _, round := range Rounds(len(ranks)) {
		for _, pr := range round {
			pairs = append(pairs, Pair{ranks[pr.I], ranks[pr.J]})
		}
	}
	return s.phase(pairs)
}

// star measures rank c against every one of ranks and returns the one
// farthest from it, the first on a tie, with its distance.
func (s *survey) star(c int, ranks []int) (far int, dist float64, err error) {
	pairs := make([]Pair, 0, len(ranks))
	for _, r := range ranks {
		if r != c {
			pairs = append(pairs, Pair{c, r})
		}
	}
	err = s.phase(pairs)
	for _, r := range ranks {
		if d := s.pf.Distance(c, r); d > dist {
			far, dist = r, d
		}
	}
	return far, dist, err
}

// sparse profiles the (ascending) ranks by clustering them while it measures.
// More than denseLimit ranks take their diameter from two sweeps — the star
// of ranks[0], then of the rank farthest from it, exact on a hierarchy — and
// run the SSS pass over a metric that measures a centre's star the first time
// the pass asks about that centre. Each cluster is then profiled the same
// way, and the pairs between clusters are filled in from the centre stars.
func (s *survey) sparse(ranks []int) error {
	if len(ranks) <= denseLimit {
		return s.dense(ranks)
	}
	far, _, err := s.star(ranks[0], ranks)
	if err != nil {
		return err
	}
	_, diam, err := s.star(far, ranks)
	if err != nil {
		return err
	}
	clusters, centres := sss.Flat(ranks, sss.DefaultSparseness*diam, func(r, c int) float64 {
		if err == nil && !s.known.At(r, c) {
			_, _, err = s.star(c, ranks)
		}
		return s.pf.Distance(r, c)
	})
	if err == nil { // the pass never asks about a centre no rank came after
		_, _, err = s.star(centres[len(centres)-1], ranks)
	}
	if err != nil {
		return err
	}
	if len(clusters) == 1 {
		return s.dense(ranks) // no hierarchy at this level
	}
	for _, cl := range clusters {
		if err := s.sparse(cl); err != nil {
			return err
		}
	}
	return s.fill(clusters, centres)
}

// fill estimates every unmeasured pair (i ∈ A, j ∈ B) of sibling clusters as
// the mean of the measured links (i, centre of B) and (j, centre of A) — two
// samples of the pair's own link class on a hierarchy. It then measures one
// estimated pair per block, and in full every block whose check misses its
// estimate by more than spotTolerance: a fabric without the hierarchy
// degrades toward all-pairs, not to a wrong profile.
func (s *survey) fill(clusters [][]int, centres []int) error {
	type block struct {
		a, b   int
		spot   Pair    // the last pair estimated,
		wo, wl float64 // and its estimate
	}
	var blocks []block
	var spots []Pair
	for a := range clusters {
		for b := a + 1; b < len(clusters); b++ {
			bl := block{a: a, b: b}
			for _, i := range clusters[a] {
				for _, j := range clusters[b] {
					if s.known.At(i, j) {
						continue
					}
					bl.wo = (s.pf.O.At(i, centres[b]) + s.pf.O.At(j, centres[a])) / 2
					bl.wl = (s.pf.L.At(i, centres[b]) + s.pf.L.At(j, centres[a])) / 2
					s.set(i, j, bl.wo, bl.wl, true)
					bl.spot = Pair{i, j}
				}
			}
			if bl.spot != (Pair{}) {
				blocks = append(blocks, bl)
				spots = append(spots, bl.spot)
			}
		}
	}
	if err := s.phase(spots); err != nil {
		return err
	}
	s.spotChecked += len(spots)
	var redo []Pair
	for _, bl := range blocks {
		o, l := s.pf.O.At(bl.spot.I, bl.spot.J), s.pf.L.At(bl.spot.I, bl.spot.J)
		if math.Abs(o-bl.wo) <= spotTolerance*bl.wo && math.Abs(l-bl.wl) <= spotTolerance*bl.wl {
			continue
		}
		s.refilled++
		for _, i := range clusters[bl.a] {
			for _, j := range clusters[bl.b] {
				redo = append(redo, Pair{i, j})
			}
		}
	}
	return s.phase(redo)
}

// finish refuses a profile with an off-diagonal entry left unmeasured — the
// model would price it as a free link — and attaches the provenance.
func (s *survey) finish() (*profile.Profile, error) {
	for i := 0; i < s.pf.P; i++ {
		for j := i + 1; j < s.pf.P; j++ {
			if !s.known.At(i, j) && !s.est.At(i, j) {
				return nil, fmt.Errorf("probe: pair (%d,%d) was neither measured nor estimated", i, j)
			}
		}
	}
	if !s.est.IsZero() {
		s.pf.Provenance = &profile.Provenance{Estimated: s.est, SpotChecked: s.spotChecked, Remeasured: s.refilled}
	}
	return s.pf, s.pf.Validate()
}
