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
	spotTolerance = 0.25 // how far a spot check may miss its estimate, or a screen its centre link's
)

// survey decides which pairs a probe measures.
type survey struct {
	pf *profile.Profile
	// measure is the measuring side, whatever runtime is under it: it runs one
	// phase, handing O and L of each direction of every listed pair to set
	// (and may hand it a rank's Oii as the pair (i, i)).
	measure func(pairs []Pair, set func(i, j int, o, l float64)) error
	// screen is its discovery side: one phase of zero-byte round trips, handing
	// set each listed pair's mean half round trip. That is a distance to
	// cluster on, never a profile entry.
	screen func(pairs []Pair, set func(i, j int, d float64)) error
	scr    map[Pair]float64 // the screened pairs' distances, keyed I < J
	// known and est are symmetric and disjoint: the off-diagonal entries that
	// hold a measured (or replicated) value, and those that hold an estimate.
	known, est            *mat.Bool
	spotChecked, refilled int // spot pairs measured, and blocks measured in full
}

func newSurvey(platform string, p int, measure func([]Pair, func(i, j int, o, l float64)) error, screen func([]Pair, func(i, j int, d float64)) error) *survey {
	return &survey{pf: profile.New(platform, p), measure: measure, screen: screen, scr: map[Pair]float64{}, known: mat.NewBool(p), est: mat.NewBool(p)}
}

// all lists the surveyed ranks.
func (s *survey) all() []int {
	all := make([]int, s.pf.P)
	for i := range all {
		all[i] = i
	}
	return all
}

// set writes direction i→j of a pair and records whether the pair is an
// estimate.
func (s *survey) set(i, j int, o, l float64, estimate bool) {
	s.pf.O.Set(i, j, o)
	s.pf.L.Set(i, j, l)
	for _, e := range [2][2]int{{i, j}, {j, i}} {
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

// dist is the screened distance of a pair, and whether it was screened; a
// rank is at distance 0 from itself.
func (s *survey) dist(i, j int) (float64, bool) {
	if i == j {
		return 0, true
	}
	d, ok := s.scr[Pair{min(i, j), max(i, j)}]
	return d, ok
}

// star screens rank c against every one of ranks not screened against it yet
// and returns the one farthest from it, the first on a tie, with its distance.
func (s *survey) star(c int, ranks []int) (far int, dist float64, err error) {
	pairs := make([]Pair, 0, len(ranks))
	for _, r := range ranks {
		if _, ok := s.dist(c, r); !ok {
			pairs = append(pairs, Pair{min(c, r), max(c, r)})
		}
	}
	if len(pairs) > 0 {
		err = s.screen(pairs, func(i, j int, d float64) { s.scr[Pair{i, j}] = d })
	}
	for _, r := range ranks {
		if d, _ := s.dist(c, r); d > dist {
			far, dist = r, d
		}
	}
	return far, dist, err
}

// sparse profiles the (ascending) ranks by clustering them on screens and
// measuring what the profile keeps. More than denseLimit ranks take their
// diameter from two sweeps — the star of ranks[0], then of the rank farthest
// from it, exact on a hierarchy — and those two ranks are the first two
// centres of a first-fit pass: a centre claims the ranks within the SSS
// threshold of it that no earlier centre claimed, and while ranks are left the
// first of them founds the next centre, its star screened against the
// unclaimed ranks only. Each cluster is then profiled the same way, and the
// pairs between clusters are filled in from the centre links.
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
	centres := []int{ranks[0], far}
	var clusters [][]int
	for k, rest := 0, ranks; len(rest) > 0; k++ {
		if k == len(centres) {
			centres = append(centres, rest[0])
			if _, _, err := s.star(rest[0], rest); err != nil {
				return err
			}
		}
		var in, out []int
		for _, r := range rest {
			if d, _ := s.dist(r, centres[k]); d <= sss.DefaultSparseness*diam {
				in = append(in, r)
			} else {
				out = append(out, r)
			}
		}
		clusters, rest = append(clusters, in), out
	}
	if len(clusters[0]) == len(ranks) {
		// On a metric the second centre lies beyond the threshold of the
		// first; measurements that break the triangle inequality by more get
		// no hierarchy read into them (and the recursion its end).
		return s.dense(ranks)
	}
	for _, cl := range clusters {
		if err := s.sparse(cl); err != nil {
			return err
		}
	}
	return s.fill(clusters, centres)
}

// sym is the direction-symmetrised entry of a pair, what a check compares.
func sym(m *mat.Costs, i, j int) float64 { return (m.At(i, j) + m.At(j, i)) / 2 }

// estimate fills direction a→b of an unmeasured pair of sibling clusters with
// the measured links of its own link class on a hierarchy: a → centre of b's
// cluster and centre of a's cluster → b, whichever were measured, or their
// mean; with neither, the centre link.
func (s *survey) estimate(a, b, ca, cb int) {
	var o, l, n float64
	for _, e := range [2][2]int{{a, cb}, {ca, b}} {
		if s.known.At(e[0], e[1]) {
			o, l, n = o+s.pf.O.At(e[0], e[1]), l+s.pf.L.At(e[0], e[1]), n+1
		}
	}
	if n == 0 {
		o, l, n = s.pf.O.At(ca, cb), s.pf.L.At(ca, cb), 1
	}
	s.set(a, b, o/n, l/n, true)
}

// fill measures, for every block of sibling clusters A and B, the centre link
// and the exceptions: each screened centre → rank link whose screen misses the
// centre link's by more than spotTolerance, so a rank off its class is
// measured, not averaged away. The rest of the block is estimated. Most
// estimates rest on one sample, so each block gets two spot checks, picked on
// screens to stress it: the rank of A farthest from A's centre against the
// ranks of B nearest to and farthest from that centre. A block whose check
// misses its estimate by more than spotTolerance is measured in full: a
// fabric without the hierarchy degrades toward all-pairs, not to a wrong
// profile.
func (s *survey) fill(clusters [][]int, centres []int) error {
	var keep []Pair
	for a := range clusters {
		for b := a + 1; b < len(clusters); b++ {
			keep = append(keep, Pair{centres[a], centres[b]})
			ref, _ := s.dist(centres[a], centres[b]) // a's star covered the later cluster b
			for _, e := range [2][2]int{{a, b}, {b, a}} {
				c := centres[e[0]]
				for _, j := range clusters[e[1]] {
					if d, ok := s.dist(c, j); ok && math.Abs(d-ref) > spotTolerance*ref {
						keep = append(keep, Pair{c, j})
					}
				}
			}
		}
	}
	if err := s.phase(keep); err != nil {
		return err
	}

	type spot struct {
		block  [2]int
		wo, wl float64 // the pair's estimate
	}
	var spots []spot // spots[k] is the check of pairs[k]
	var pairs []Pair
	for a := range clusters {
		for b := a + 1; b < len(clusters); b++ {
			ca, row := centres[a], -1
			// Every distance read below is to ca: its star covered A and B.
			dist := func(r int) float64 { d, _ := s.dist(r, ca); return d }
			for _, i := range clusters[a] {
				guessed := false
				for _, j := range clusters[b] {
					if !s.known.At(i, j) {
						s.estimate(i, j, ca, centres[b])
						s.estimate(j, i, centres[b], ca)
						guessed = true
					}
				}
				if guessed && (row < 0 || dist(i) > dist(row)) {
					row = i
				}
			}
			if row < 0 {
				continue
			}
			near, far := -1, -1
			for _, j := range clusters[b] {
				if !s.est.At(row, j) {
					continue
				}
				d := dist(j)
				if near < 0 || d < dist(near) {
					near = j
				}
				if far < 0 || d >= dist(far) {
					far = j
				}
			}
			picks := []int{near, far}
			if near == far {
				picks = picks[:1]
			}
			for _, j := range picks {
				spots = append(spots, spot{[2]int{a, b}, sym(s.pf.O, row, j), sym(s.pf.L, row, j)})
				pairs = append(pairs, Pair{row, j})
			}
		}
	}
	if err := s.phase(pairs); err != nil {
		return err
	}
	s.spotChecked += len(spots)
	var redo []Pair
	failed := map[[2]int]bool{}
	for k, sp := range spots {
		o, l := sym(s.pf.O, pairs[k].I, pairs[k].J), sym(s.pf.L, pairs[k].I, pairs[k].J)
		if failed[sp.block] || (math.Abs(o-sp.wo) <= spotTolerance*sp.wo && math.Abs(l-sp.wl) <= spotTolerance*sp.wl) {
			continue
		}
		failed[sp.block] = true
		s.refilled++
		for _, i := range clusters[sp.block[0]] {
			for _, j := range clusters[sp.block[1]] {
				redo = append(redo, Pair{i, j})
			}
		}
	}
	return s.phase(redo)
}

// finish refuses a profile with an off-diagonal entry left unmeasured — the
// model would price it as a free link — and attaches the provenance when
// anything was estimated or screened.
func (s *survey) finish() (*profile.Profile, error) {
	for i := 0; i < s.pf.P; i++ {
		for j := i + 1; j < s.pf.P; j++ {
			if !s.known.At(i, j) && !s.est.At(i, j) {
				return nil, fmt.Errorf("probe: pair (%d,%d) was neither measured nor estimated", i, j)
			}
		}
	}
	if !s.est.IsZero() || len(s.scr) > 0 {
		s.pf.Provenance = &profile.Provenance{Estimated: s.est, Screened: len(s.scr), SpotChecked: s.spotChecked, Remeasured: s.refilled}
	}
	return s.pf, s.pf.Validate()
}
