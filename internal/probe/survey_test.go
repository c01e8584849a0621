package probe

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/profile"
	"topobarrier/internal/sss"
	"topobarrier/internal/stats"
)

// synthetic is a survey over a known truth: measuring a pair copies its true
// O and L, screening it reports its true distance at screenScale, and each is
// counted apart.
type synthetic struct {
	*survey
	truth              *profile.Profile
	measured, screened int
	phases             int
}

// screenScale puts a screen three orders of magnitude above any entry of a
// truth, so one that leaks into O or L fails run's range check.
const screenScale = 1e3

func newSynthetic(truth *profile.Profile) *synthetic {
	p := truth.P
	sy := &synthetic{truth: truth}
	sy.survey = newSurvey("synthetic", p, nil, nil)
	sy.measure = func(pairs []Pair, set func(i, j int, o, l float64)) error {
		sy.phases++
		for _, pr := range pairs {
			if pr.I >= pr.J || sy.known.At(pr.I, pr.J) {
				return fmt.Errorf("phase %d asks for pair %+v, malformed or already measured", sy.phases, pr)
			}
			set(pr.I, pr.J, truth.O.At(pr.I, pr.J), truth.L.At(pr.I, pr.J))
			set(pr.J, pr.I, truth.O.At(pr.J, pr.I), truth.L.At(pr.J, pr.I))
		}
		sy.measured += len(pairs)
		return nil
	}
	sy.screen = func(pairs []Pair, set func(i, j int, d float64)) error {
		sy.phases++
		for _, pr := range pairs {
			if _, ok := sy.scr[pr]; pr.I >= pr.J || ok {
				return fmt.Errorf("phase %d screens pair %+v, malformed or already screened", sy.phases, pr)
			}
			set(pr.I, pr.J, screenScale*truth.Distance(pr.I, pr.J))
		}
		sy.screened += len(pairs)
		return nil
	}
	return sy
}

// run surveys the truth and checks what every survey must leave: no screen
// in the profile, and screens counted in its provenance.
func (sy *synthetic) run(t *testing.T) *profile.Profile {
	t.Helper()
	if err := sy.sparse(sy.all()); err != nil {
		t.Fatal(err)
	}
	pf, err := sy.finish()
	if err != nil {
		t.Fatal(err)
	}
	top := 0.0
	for _, m := range []*mat.Dense{sy.truth.O, sy.truth.L} {
		for _, v := range m.Data() {
			top = max(top, v)
		}
	}
	for _, m := range []*mat.Dense{pf.O, pf.L} {
		for k, v := range m.Data() {
			if v > top {
				t.Fatalf("profile entry (%d,%d) = %g, above every entry of the truth (%g): a screen leaked in", k/pf.P, k%pf.P, v, top)
			}
		}
	}
	if sy.screened > 0 && (pf.Provenance == nil || pf.Provenance.Screened != sy.screened) {
		t.Fatalf("provenance %+v does not record %d screens", pf.Provenance, sy.screened)
	}
	return pf
}

// hierarchy is a random tree over a shuffled rank set: a pair's O is the
// level value of its lowest common ancestor and its L a fixed fraction of it,
// so the metric is an exact ultrametric with one value per link class. Each
// level is at most 0.3 of the one above, well inside the 0.35 sparseness.
type hierarchy struct {
	ranks    []int
	value    float64
	children []*hierarchy
}

func randomHierarchy(rng *stats.RNG, ranks []int, value float64) *hierarchy {
	h := &hierarchy{ranks: ranks, value: value}
	if len(ranks) <= 2 || value < 1e-7 {
		return h
	}
	k := min(2+rng.Intn(7), len(ranks))
	// k-1 distinct interior cut points: the head of a shuffle of 1..n-1.
	cuts := make([]int, len(ranks)-1)
	for i := range cuts {
		cuts[i] = i + 1
	}
	shuffle(rng, cuts)
	cuts = append(cuts[:k-1], 0, len(ranks))
	sort.Ints(cuts)
	for c := 0; c+1 < len(cuts); c++ {
		sub := ranks[cuts[c]:cuts[c+1]]
		h.children = append(h.children, randomHierarchy(rng, sub, value*(0.05+0.25*rng.Float64())))
	}
	return h
}

func shuffle[T any](rng *stats.RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func (h *hierarchy) fillTruth(pf *profile.Profile) {
	for _, i := range h.ranks {
		for _, j := range h.ranks {
			if i != j {
				pf.O.Set(i, j, h.value)
				pf.L.Set(i, j, h.value/7)
			}
		}
	}
	for _, c := range h.children {
		c.fillTruth(pf)
	}
}

// pairs is the most pairs the survey may measure on the hierarchy: all pairs
// of a set of at most denseLimit ranks (or one with no level below it), and
// otherwise, per sibling block, the centre link and two spot checks, plus the
// children's own bounds. An exact hierarchy has no exceptions to add.
func (h *hierarchy) pairs() int {
	n, k := len(h.ranks), len(h.children)
	if n <= denseLimit || k == 0 {
		return n * (n - 1) / 2
	}
	b := 3 * k * (k - 1) / 2
	for _, c := range h.children {
		b += c.pairs()
	}
	return min(b, n*(n-1)/2)
}

// screens is the most pairs it may screen: none in a set of at most
// denseLimit ranks, all of one with no level below it, and otherwise the two
// diameter sweeps, a first-fit star per further child over the ranks still
// unclaimed (at most what the smallest children leave), and the children's
// own bounds.
func (h *hierarchy) screens() int {
	n, k := len(h.ranks), len(h.children)
	if n <= denseLimit {
		return 0
	}
	if k == 0 {
		return n * (n - 1) / 2
	}
	sizes := make([]int, k)
	for i, c := range h.children {
		sizes[i] = len(c.ranks)
	}
	sort.Ints(sizes)
	b, rest := (n-1)+(n-2), n-sizes[0]-sizes[1]
	for _, sz := range sizes[2:] {
		b += rest - 1
		rest -= sz
	}
	for _, c := range h.children {
		b += c.screens()
	}
	return min(b, n*(n-1)/2)
}

func TestSparseOnRandomHierarchies(t *testing.T) {
	for _, p := range []int{17, 33, 64, 120, 256} {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := stats.NewRNG(seed*1000 + uint64(p))
			ranks := make([]int, p)
			for i := range ranks {
				ranks[i] = i
			}
			shuffle(rng, ranks)
			h := randomHierarchy(rng, ranks, 100e-6)
			truth := profile.New("truth", p)
			h.fillTruth(truth)
			for i := 0; i < p; i++ {
				truth.O.Set(i, i, 1e-6)
			}

			sy := newSynthetic(truth)
			pf := sy.run(t)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if i != j && (pf.O.At(i, j) != truth.O.At(i, j) || pf.L.At(i, j) != truth.L.At(i, j)) {
						t.Fatalf("P=%d seed %d: entry (%d,%d) = %g/%g, class value %g/%g (estimated: %v)", p, seed, i, j,
							pf.O.At(i, j), pf.L.At(i, j), truth.O.At(i, j), truth.L.At(i, j), sy.est.At(i, j))
					}
				}
			}
			if sy.refilled != 0 {
				t.Errorf("P=%d seed %d: %d blocks re-measured on an exact hierarchy", p, seed, sy.refilled)
			}
			if got, want := sss.Tree(pf, sss.Options{}).String(), sss.Tree(truth, sss.Options{}).String(); got != want {
				t.Errorf("P=%d seed %d: clusters of the sparse profile\n%s\nwant those of the full matrix\n%s", p, seed, got, want)
			}
			all, est := p*(p-1)/2, sy.est.Count()/2
			if sy.measured+est != all || sy.measured > h.pairs() {
				t.Errorf("P=%d seed %d: measured %d + estimated %d of %d pairs, bound %d", p, seed, sy.measured, est, all, h.pairs())
			}
			if sy.screened > h.screens() {
				t.Errorf("P=%d seed %d: screened %d pairs, bound %d", p, seed, sy.screened, h.screens())
			}
			if seed == 1 {
				t.Logf("P=%d: measured %d of %d pairs (bound %d), screened %d (bound %d), in %d phases",
					p, sy.measured, all, h.pairs(), sy.screened, h.screens(), sy.phases)
			}
		}
	}
}

// On a ring there is no hierarchy to find: a centre link is the wrong value
// for most pairs between two arcs. The spot checks must notice, every block
// they flag must come back measured, and what stays estimated — a block that
// passed both of its checks — is off by at most 50 %.
func TestSparseOnRingFallsBack(t *testing.T) {
	const p = 64
	truth := profile.New("ring", p)
	for i := 0; i < p; i++ {
		truth.O.Set(i, i, 1e-6)
		for j := 0; j < p; j++ {
			if hops := min((i-j+p)%p, (j-i+p)%p); hops > 0 {
				truth.O.Set(i, j, float64(hops)*10e-6)
				truth.L.Set(i, j, float64(hops)*1e-6)
			}
		}
	}
	sy := newSynthetic(truth)
	pf := sy.run(t)
	if sy.refilled == 0 {
		t.Fatalf("no block re-measured on a ring (%d spot checks)", sy.spotChecked)
	}
	worst := 0.0
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			e := relativeErr(pf.O.At(i, j), truth.O.At(i, j))
			if !sy.est.At(i, j) && e != 0 {
				t.Fatalf("measured entry (%d,%d) = %g, truth %g", i, j, pf.O.At(i, j), truth.O.At(i, j))
			}
			worst = max(worst, e)
		}
	}
	est := sy.est.Count() / 2
	if pv := pf.Provenance; est > 0 && (pv == nil || pv.Remeasured != sy.refilled || pv.SpotChecked != sy.spotChecked) {
		t.Fatalf("provenance %+v does not record %d spot checks, %d re-measured blocks", pv, sy.spotChecked, sy.refilled)
	}
	t.Logf("ring P=%d: %d spot checks, %d blocks fell back; measured %d of %d pairs, %d screened, %d estimated, worst surviving estimate off by %.0f%%",
		p, sy.spotChecked, sy.refilled, sy.measured, p*(p-1)/2, sy.screened, est, 100*worst)
	if worst > 0.5 {
		t.Fatalf("an estimate that survived its block's spot checks is off by %.0f%%, want at most 50%%", 100*worst)
	}
}

// A flat, noisy set of more than denseLimit ranks — one link class, distances
// off a metric by 2.5× — has no clusters to find: whatever
// the first-fit pass makes of the noise, the survey must terminate and leave
// every pair measured or estimated.
func TestSparseOnFlatNoisySetTerminates(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		const p = 24
		rng := stats.NewRNG(seed)
		truth := profile.New("flat", p)
		for i := 0; i < p; i++ {
			truth.O.Set(i, i, 1e-6)
			for j := i + 1; j < p; j++ {
				o := 10e-6 * (1 + 1.5*rng.Float64())
				truth.O.Set(i, j, o)
				truth.O.Set(j, i, o)
				truth.L.Set(i, j, o/10)
				truth.L.Set(j, i, o/10)
			}
		}
		sy := newSynthetic(truth)
		sy.run(t)
		if est := sy.est.Count() / 2; sy.measured+est != p*(p-1)/2 {
			t.Fatalf("seed %d: measured %d + estimated %d of %d pairs", seed, sy.measured, est, p*(p-1)/2)
		}
	}
}

// Measurements that break the triangle inequality so far that the first centre
// claims every rank (one pair 10× the rest: the diameter sweep finds it, the
// threshold then covers everything else) carry no hierarchy: the set is
// measured all-pairs, and the recursion ends.
func TestSparseOnNonMetricSetIsDense(t *testing.T) {
	const p = 20
	truth := profile.New("non-metric", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			truth.O.Set(i, j, 1e-6)
			truth.L.Set(i, j, 1e-7)
		}
	}
	truth.O.Set(1, 5, 1e-5) // rank 1 is the first at rank 0's (uniform) radius
	truth.O.Set(5, 1, 1e-5)
	sy := newSynthetic(truth)
	if pf := sy.run(t); sy.measured != p*(p-1)/2 || pf.MeasuredPairs() != sy.measured {
		t.Fatalf("measured %d of %d pairs (provenance %+v), want all of them", sy.measured, p*(p-1)/2, pf.Provenance)
	}
}

// A slow rank — its links out of its own cluster cost 3× their class — breaks
// the hierarchy at one rank. Its screens miss the centre links they are held
// to, so the links it makes wrong are measured as exceptions: no block falls
// back, the survey stays far from all-pairs, and every estimate left is within
// 25 %. Rank 0 is a diameter-sweep centre; the others are found by it.
func TestSparseMeasuresASlowRank(t *testing.T) {
	const p, size = 64, 16
	for _, slow := range []int{0, 21, 40, 63} {
		truth := profile.New("slow rank", p)
		for i := 0; i < p; i++ {
			truth.O.Set(i, i, 1e-6)
			for j := 0; j < p; j++ {
				o := 10e-6
				if i/size != j/size {
					o = 100e-6
					if i == slow || j == slow {
						o *= 3
					}
				}
				if i != j {
					truth.O.Set(i, j, o)
					truth.L.Set(i, j, o/7)
				}
			}
		}
		sy := newSynthetic(truth)
		pf := sy.run(t)
		if all := p * (p - 1) / 2; sy.refilled != 0 || 2*sy.measured > all {
			t.Errorf("slow rank %d: %d blocks re-measured, %d of %d pairs measured", slow, sy.refilled, sy.measured, all)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i == j || !sy.est.At(i, j) {
					continue
				}
				if e := max(relativeErr(pf.O.At(i, j), truth.O.At(i, j)), relativeErr(pf.L.At(i, j), truth.L.At(i, j))); e > spotTolerance {
					t.Fatalf("slow rank %d: estimate (%d,%d) = %g, truth %g: off by %.0f%%", slow, i, j, pf.O.At(i, j), truth.O.At(i, j), 100*e)
				}
			}
		}
		t.Logf("slow rank %d: measured %d pairs, screened %d, %d estimated", slow, sy.measured, sy.screened, sy.est.Count()/2)
	}
}

// An entry nobody measured or estimated is a free link to the model: finish
// must refuse the profile and name the pair.
func TestFinishRefusesUnmeasuredEntry(t *testing.T) {
	truth := profile.New("truth", 4)
	sy := newSynthetic(truth)
	if err := sy.phase([]Pair{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sy.finish(); err == nil || err.Error() != "probe: pair (1,3) was neither measured nor estimated" {
		t.Fatalf("finish() = %v, want it to name pair (1,3)", err)
	}
}

// pairRounds: the all-pairs tournament order comes back as Rounds(p), and an
// arbitrary pair set becomes rounds of disjoint pairs that keep, per rank,
// the order the pairs were listed in.
func TestPairRounds(t *testing.T) {
	for p := 2; p <= 33; p++ {
		var flatList []Pair
		for _, round := range Rounds(p) {
			flatList = append(flatList, round...)
		}
		if got := PairRounds(p, flatList); !reflect.DeepEqual(got, Rounds(p)) {
			t.Fatalf("p=%d: pairRounds of the tournament order is not Rounds(p)", p)
		}
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		p := 2 + rng.Intn(40)
		var pairs []Pair
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if rng.Intn(3) == 0 {
					pairs = append(pairs, Pair{i, j})
				}
			}
		}
		shuffle(rng, pairs)
		perRank := make([][]Pair, p)
		for _, round := range PairRounds(p, pairs) {
			in := map[int]bool{}
			for _, pr := range round {
				if in[pr.I] || in[pr.J] {
					t.Fatalf("trial %d: a rank sits twice in round %v", trial, round)
				}
				in[pr.I], in[pr.J] = true, true
				perRank[pr.I] = append(perRank[pr.I], pr)
				perRank[pr.J] = append(perRank[pr.J], pr)
			}
		}
		want := make([][]Pair, p)
		for _, pr := range pairs {
			want[pr.I] = append(want[pr.I], pr)
			want[pr.J] = append(want[pr.J], pr)
		}
		if !reflect.DeepEqual(perRank, want) {
			t.Fatalf("trial %d: per-rank pair order changed by the round assignment", trial)
		}
	}
	if got := PairRounds(4, nil); got != nil {
		t.Fatalf("pairRounds of no pairs = %v", got)
	}
}
