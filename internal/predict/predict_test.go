package predict

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// uniformProfile has O=o, L=l on every off-diagonal link and Oii=oii.
func uniformProfile(p int, o, l, oii float64) *profile.Profile {
	pr := profile.New("uniform", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				pr.O.Set(i, j, oii)
				continue
			}
			pr.O.Set(i, j, o)
			pr.L.Set(i, j, l)
		}
	}
	return pr
}

// clusteredProfile models two tightly-coupled groups of size p/2 with slow
// links between them.
func clusteredProfile(p int, oLocal, oRemote, lLocal, lRemote, oii float64) *profile.Profile {
	pr := profile.New("clustered", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				pr.O.Set(i, j, oii)
				continue
			}
			if (i < p/2) == (j < p/2) {
				pr.O.Set(i, j, oLocal)
				pr.L.Set(i, j, lLocal)
			} else {
				pr.O.Set(i, j, oRemote)
				pr.L.Set(i, j, lRemote)
			}
		}
	}
	return pr
}

const (
	o   = 10e-6
	l   = 2e-6
	oii = 1e-6
)

// batchCost is the list form of rowInputs' drain — the same Eq. 1/2 sum over
// an explicit target list in increasing order — kept as the reference
// rowInputs' word scan is held to, bit for bit.
func (pd *Predictor) batchCost(i int, targets []int, ready bool) float64 {
	if len(targets) == 0 {
		return 0
	}
	sumL := 0.0
	maxO := 0.0
	for _, j := range targets {
		sumL += pd.Prof.L.At(i, j)
		if o := pd.Prof.O.At(i, j); o > maxO {
			maxO = o
		}
	}
	if ready {
		return pd.Prof.O.At(i, i) + sumL
	}
	return maxO + sumL
}

func TestBatchCostEquations(t *testing.T) {
	pd := New(uniformProfile(8, o, l, oii))
	// Eq. 1: max O + Σ L.
	if got := pd.batchCost(0, []int{1, 2, 3}, false); math.Abs(got-(o+3*l)) > 1e-18 {
		t.Fatalf("Eq1 batch = %g, want %g", got, o+3*l)
	}
	// Eq. 2: Oii + Σ L.
	if got := pd.batchCost(0, []int{1, 2, 3}, true); math.Abs(got-(oii+3*l)) > 1e-18 {
		t.Fatalf("Eq2 batch = %g, want %g", got, oii+3*l)
	}
	if pd.batchCost(0, nil, false) != 0 {
		t.Fatalf("empty batch has nonzero cost")
	}
}

func TestBatchCostMaxOverhead(t *testing.T) {
	pr := uniformProfile(4, o, l, oii)
	pr.O.Set(0, 3, 100e-6) // one slow target dominates the max term
	pd := New(pr)
	want := 100e-6 + 3*l
	if got := pd.batchCost(0, []int{1, 2, 3}, false); math.Abs(got-want) > 1e-18 {
		t.Fatalf("max-overhead batch = %g, want %g", got, want)
	}
}

func TestLinearCostClosedForm(t *testing.T) {
	p := 8
	pd := New(uniformProfile(p, o, l, oii))
	// Stage 0 (Eq. 1): each non-root sends one signal, root done at o+l.
	// Stage 1 (Eq. 2): root sends p-1 signals: oii + (p-1)l.
	want := (o + l) + (oii + float64(p-1)*l)
	got := pd.Cost(sched.Linear(p))
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("linear cost = %g, want %g", got, want)
	}
}

func TestRingArrivalCostChains(t *testing.T) {
	p := 4
	pd := New(uniformProfile(p, o, l, oii))
	// Stage 0: 0→1 at o+l; stages 1,2 each add oii+l.
	want := (o + l) + 2*(oii+l)
	got := pd.Cost(sched.RingArrival(p))
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("ring arrival cost = %g, want %g", got, want)
	}
}

func TestPolicyOrdering(t *testing.T) {
	s := sched.Tree(16)
	pr := uniformProfile(16, o, l, oii)
	eq1 := &Predictor{Prof: pr, Policy: AlwaysEq1}
	def := &Predictor{Prof: pr, Policy: FirstStageEq1}
	if c1, cd := eq1.Cost(s), def.Cost(s); !(cd < c1) {
		t.Fatalf("policy ordering violated: default=%g eq1=%g", cd, c1)
	}
}

func TestTreeBeatsLinearAtScale(t *testing.T) {
	p := 32
	pd := New(uniformProfile(p, o, l, oii))
	lin := pd.Cost(sched.Linear(p))
	tree := pd.Cost(sched.Tree(p))
	if tree >= lin {
		t.Fatalf("tree (%g) not faster than linear (%g) at p=%d", tree, lin, p)
	}
}

func TestDisseminationFewerStagesThanTree(t *testing.T) {
	p := 32
	pd := New(uniformProfile(p, o, l, oii))
	dis := pd.Cost(sched.Dissemination(p))
	tree := pd.Cost(sched.Tree(p))
	// On a uniform interconnect dissemination halves the stage count and
	// should win.
	if dis >= tree {
		t.Fatalf("dissemination (%g) not faster than tree (%g) on uniform links", dis, tree)
	}
}

func TestClusteredProfileFavoursLocalityAwareTree(t *testing.T) {
	// With two far-apart groups, the binomial tree (which crosses the slow
	// boundary once per direction) must beat dissemination (which crosses it
	// in every stage).
	p := 16
	pd := New(clusteredProfile(p, 2e-6, 80e-6, 0.5e-6, 8e-6, 1e-6))
	dis := pd.Cost(sched.Dissemination(p))
	tree := pd.Cost(sched.Tree(p))
	if tree >= dis {
		t.Fatalf("tree (%g) not faster than dissemination (%g) on clustered profile", tree, dis)
	}
}

func TestArrivalPhaseCost(t *testing.T) {
	p := 8
	pd := New(uniformProfile(p, o, l, oii))
	arr := sched.TreeArrival(p)
	if got, want := pd.ArrivalPhaseCost(arr, true), 2*pd.Cost(arr); got != want {
		t.Fatalf("doubled arrival cost = %g, want %g", got, want)
	}
	dis := sched.Dissemination(p)
	if got, want := pd.ArrivalPhaseCost(dis, false), pd.Cost(dis); got != want {
		t.Fatalf("dissemination root cost = %g, want %g", got, want)
	}
}

func TestMismatchedProfilePanics(t *testing.T) {
	pd := New(uniformProfile(4, o, l, oii))
	defer func() {
		if recover() == nil {
			t.Fatalf("size mismatch accepted")
		}
	}()
	pd.Cost(sched.Linear(5))
}

func TestEmptySchedulePredictsZero(t *testing.T) {
	pd := New(uniformProfile(3, o, l, oii))
	if got := pd.Cost(sched.New("empty", 3)); got != 0 {
		t.Fatalf("empty schedule cost = %g", got)
	}
}

func TestPolicyString(t *testing.T) {
	if FirstStageEq1.String() != "eq1-first-stage" || AlwaysEq1.String() != "always-eq1" ||
		CostPolicy(9).String() != "CostPolicy(9)" {
		t.Fatalf("policy names wrong")
	}
}

func BenchmarkCostTree64(b *testing.B) {
	pd := New(uniformProfile(64, o, l, oii))
	s := sched.Tree(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pd.Cost(s)
	}
}

func TestTimelineAgreesWithCost(t *testing.T) {
	for _, policy := range []CostPolicy{FirstStageEq1, AlwaysEq1} {
		pd := &Predictor{Prof: uniformProfile(8, 10e-6, 2e-6, 1e-6), Policy: policy}
		for _, s := range []*sched.Schedule{sched.Tree(8), sched.Dissemination(8), sched.Linear(8)} {
			tl := pd.Timeline(s)
			if len(tl) != s.NumStages() {
				t.Fatalf("%s: timeline has %d stages, schedule %d", s.Name, len(tl), s.NumStages())
			}
			last := tl[len(tl)-1]
			max := 0.0
			for _, v := range last {
				if v > max {
					max = v
				}
			}
			if cost := pd.Cost(s); max != cost {
				t.Fatalf("%s policy %v: timeline max %g != Cost %g", s.Name, policy, max, cost)
			}
			for i := 0; i < s.P; i++ {
				for k := 1; k < len(tl); k++ {
					if tl[k][i] < tl[k-1][i] {
						t.Fatalf("%s: rank %d completion went backwards at stage %d", s.Name, i, k)
					}
				}
			}
		}
	}
}

// referenceTimeline is §VI's recurrence written the paper-literal way — one
// batchCost over Row(i) per rank per stage, then one arrival per listed
// target — which Cost and Timeline replaced with a single
// allocation-free walk of each row's words. They must agree bit for bit.
func referenceTimeline(pd *Predictor, s *sched.Schedule) [][]float64 {
	out := make([][]float64, s.NumStages())
	t := make([]float64, s.P)
	for k, st := range s.Stages {
		dur := make([]float64, s.P)
		next := make([]float64, s.P)
		for i := range dur {
			dur[i] = pd.batchCost(i, st.Row(i), pd.stageReady(k))
			next[i] = t[i] + dur[i]
		}
		for m := 0; m < s.P; m++ {
			for _, i := range st.Row(m) {
				if arr := t[m] + dur[m]; arr > next[i] {
					next[i] = arr
				}
			}
		}
		out[k], t = next, next
	}
	return out
}

func TestForwardMatchesPaperLiteralRecurrence(t *testing.T) {
	for _, p := range []int{2, 9, 64, 70} {
		for _, policy := range []CostPolicy{FirstStageEq1, AlwaysEq1} {
			pd := &Predictor{Prof: noisyProfile(p, uint64(p)), Policy: policy}
			scheds := []*sched.Schedule{sched.Linear(p), sched.Dissemination(p), sched.Tree(p)}
			for _, b := range sched.ExtendedBuilders() {
				a := b.Arrival(p)
				scheds = append(scheds, a.Concat(a.ReverseTransposed()))
			}
			for _, s := range scheds {
				want := referenceTimeline(pd, s)
				if got := pd.Timeline(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v: Timeline differs from the reference", s.Name, policy)
				}
				for k, st := range s.Stages {
					for i := 0; i < p; i++ {
						got, es := pd.rowInputs(st, k, i, nil)
						if want := pd.batchCost(i, st.Row(i), pd.stageReady(k)); got != want {
							t.Fatalf("%s stage %d rank %d: rowInputs drain %v, batchCost %v", s.Name, k, i, got, want)
						}
						var targets []int
						for _, e := range es {
							if int(e.from) != i {
								t.Fatalf("%s stage %d rank %d: rowInputs edge from %d", s.Name, k, i, e.from)
							}
							targets = append(targets, int(e.to))
						}
						if want := st.Row(i); !slices.Equal(targets, want) {
							t.Fatalf("%s stage %d rank %d: rowInputs targets %v, Row %v", s.Name, k, i, targets, want)
						}
					}
				}
			}
		}
	}
}

// TestLocalPricingEqualsLiftedPricing is the composer's licence to price a
// candidate on the cluster's own sub-profile: for an ascending member list,
// the n-rank pattern on Prof.Sub(members) costs exactly — ==, not ≈ — what its
// lift into the P-rank space costs on the full profile, under every policy.
// A descending list sums L in another order and may not.
func TestLocalPricingEqualsLiftedPricing(t *testing.T) {
	const p = 70
	rng := stats.NewRNG(16)
	for trial := 0; trial < 60; trial++ {
		pr := noisyProfile(p, uint64(trial+1))
		var members []int
		for r := 0; r < p; r++ {
			if rng.Float64() < 0.3 {
				members = append(members, r)
			}
		}
		if len(members) < 2 {
			continue
		}
		for _, policy := range []CostPolicy{FirstStageEq1, AlwaysEq1} {
			full := &Predictor{Prof: pr, Policy: policy}
			local := &Predictor{Prof: pr.Sub(members), Policy: policy}
			for _, b := range sched.ExtendedBuilders() {
				arrival := b.Arrival(len(members))
				got, want := local.Cost(arrival), full.Cost(arrival.Lift(p, members))
				if got != want {
					t.Fatalf("trial %d %s over %v policy %v: local %v, lifted %v", trial, b.Name, members, policy, got, want)
				}
			}
		}
	}
}
