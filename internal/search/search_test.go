package search

import (
	"fmt"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func uniformProfile(p int) *profile.Profile {
	pr := profile.New("uniform", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				pr.O.Set(i, j, 1e-6)
				continue
			}
			pr.O.Set(i, j, 10e-6)
			pr.L.Set(i, j, 2e-6)
		}
	}
	return pr
}

// exhaustive is the test oracle: it enumerates all stage sequences of length
// 1..maxStages over all boolean P×P incidence matrices without self-signals,
// and returns the cheapest one that globally synchronises. It is exponential
// in P²·stages and refuses P > 3 or budgets above 2 stages unless force is
// set; with P=3 and maxStages=2 it examines ~4000 sequences.
func exhaustive(pd *predict.Predictor, maxStages int, force bool) (*Result, error) {
	p := pd.Prof.P
	if !force && (p > 3 || maxStages > 2) {
		return nil, fmt.Errorf("search: exhaustive over P=%d, %d stages is intractable (use force)", p, maxStages)
	}
	if maxStages < 1 {
		return nil, fmt.Errorf("search: non-positive stage budget %d", maxStages)
	}
	edges := p * (p - 1)
	if edges >= 63 {
		return nil, fmt.Errorf("search: P=%d has too many edges to enumerate", p)
	}
	numMatrices := 1 << uint(edges)

	best := &Result{}
	var rec func(prefix []*mat.Bool)
	rec = func(prefix []*mat.Bool) {
		if len(prefix) > 0 {
			s := sched.New(fmt.Sprintf("exhaustive(%d)", p), p)
			for _, m := range prefix {
				s.AddStage(m.Clone())
			}
			best.Examined++
			if s.IsBarrier() {
				c := pd.Cost(s)
				if best.Schedule == nil || c < best.Cost {
					best.Schedule, best.Cost = s, c
				}
			}
		}
		if len(prefix) == maxStages {
			return
		}
		for code := 1; code < numMatrices; code++ {
			rec(append(prefix, matrixFromCode(p, uint64(code))))
		}
	}
	rec(nil)
	if best.Schedule == nil {
		return nil, fmt.Errorf("search: no barrier within %d stages (impossible for maxStages ≥ 1)", maxStages)
	}
	return best, nil
}

// matrixFromCode decodes a bitmask over the p(p-1) ordered off-diagonal
// entries (row-major) into an incidence matrix.
func matrixFromCode(p int, code uint64) *mat.Bool {
	m := mat.NewBool(p)
	bit := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			if code&(1<<uint(bit)) != 0 {
				m.Set(i, j, true)
			}
			bit++
		}
	}
	return m
}

func TestExhaustiveP2FindsMutualExchange(t *testing.T) {
	pd := predict.New(uniformProfile(2))
	res, err := exhaustive(pd, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.IsBarrier() {
		t.Fatalf("optimum not a barrier")
	}
	if res.Schedule.NumStages() != 1 || res.Schedule.SignalCount() != 2 {
		t.Fatalf("P=2 optimum should be one mutual-exchange stage:\n%s", res.Schedule)
	}
	if res.Examined < 3 {
		t.Fatalf("examined only %d candidates", res.Examined)
	}
}

func TestExhaustiveP3BeatsOrMatchesClassics(t *testing.T) {
	pd := predict.New(uniformProfile(3))
	res, err := exhaustive(pd, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, classic := range []*sched.Schedule{sched.Linear(3), sched.Dissemination(3), sched.Tree(3)} {
		if res.Cost > pd.Cost(classic)+1e-15 {
			t.Fatalf("exhaustive optimum %g worse than %s %g", res.Cost, classic.Name, pd.Cost(classic))
		}
	}
	if !res.Schedule.IsBarrier() {
		t.Fatalf("optimum not a barrier")
	}
	// The enumerated optimum is a floor for whatever the anneal finds in the
	// same space (it may also grow the 2-stage seed, which costs more here).
	ann, err := Anneal(pd, sched.Dissemination(3), AnnealOptions{Seed: 1, Budget: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if ann.Schedule.NumStages() != 2 || ann.Cost < res.Cost-1e-15 {
		t.Fatalf("anneal found %g in %d stages, against the enumerated 2-stage optimum %g",
			ann.Cost, ann.Schedule.NumStages(), res.Cost)
	}
}

func TestExhaustiveTractabilityGuard(t *testing.T) {
	pd := predict.New(uniformProfile(4))
	if _, err := exhaustive(pd, 2, false); err == nil || !strings.Contains(err.Error(), "intractable") {
		t.Fatalf("P=4 exhaustive accepted: %v", err)
	}
	pd3 := predict.New(uniformProfile(3))
	if _, err := exhaustive(pd3, 0, false); err == nil {
		t.Fatalf("zero stage budget accepted")
	}
	big := predict.New(uniformProfile(9))
	if _, err := exhaustive(big, 1, true); err == nil {
		t.Fatalf("P=9 (72 edges) enumeration accepted")
	}
}

func TestMatrixFromCodeRoundTrip(t *testing.T) {
	// Code with all bits set = full off-diagonal matrix.
	m := matrixFromCode(3, (1<<6)-1)
	if m.Count() != 6 {
		t.Fatalf("full code produced %d signals", m.Count())
	}
	for i := 0; i < 3; i++ {
		if m.At(i, i) {
			t.Fatalf("self-signal from code")
		}
	}
	if matrixFromCode(3, 0).Count() != 0 {
		t.Fatalf("zero code not empty")
	}
	// First bit is entry (0,1).
	if !matrixFromCode(3, 1).At(0, 1) {
		t.Fatalf("bit order wrong")
	}
}

func clusteredPredictor(t testing.TB, p int) *predict.Predictor {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return predict.New(f.TrueProfile())
}

func TestAnnealNeverWorseThanSeed(t *testing.T) {
	pd := clusteredPredictor(t, 16)
	seed := sched.Tree(16)
	res, err := Anneal(pd, seed, AnnealOptions{Seed: 7, Budget: 1600, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.IsBarrier() {
		t.Fatalf("annealed result not a barrier")
	}
	if res.Cost > pd.Cost(seed) {
		t.Fatalf("anneal made it worse: %g vs %g", res.Cost, pd.Cost(seed))
	}
	if res.Examined == 0 {
		t.Fatalf("no candidates examined")
	}
}

func TestAnnealImprovesTopologyNeutralSeedOnCluster(t *testing.T) {
	// On a strongly clustered profile, signal-level optimisation of the
	// topology-neutral dissemination barrier must find savings.
	pd := clusteredPredictor(t, 12)
	seed := sched.Dissemination(12)
	res, err := Anneal(pd, seed, AnnealOptions{Seed: 3, Budget: 9000, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= pd.Cost(seed) {
		t.Fatalf("no improvement: %g vs seed %g", res.Cost, pd.Cost(seed))
	}
}

func TestAnnealDeterministic(t *testing.T) {
	pd := clusteredPredictor(t, 12)
	seed := sched.Tree(12)
	a, err := Anneal(pd, seed, AnnealOptions{Seed: 5, Budget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(pd, seed, AnnealOptions{Seed: 5, Budget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || !a.Schedule.Equal(b.Schedule) {
		t.Fatalf("same seed produced different results: %g vs %g", a.Cost, b.Cost)
	}
}

func TestAnnealRejectsBadSeeds(t *testing.T) {
	pd := clusteredPredictor(t, 12)
	if _, err := Anneal(pd, sched.LinearArrival(12), AnnealOptions{}); err == nil {
		t.Fatalf("non-barrier seed accepted")
	}
	if _, err := Anneal(pd, sched.Tree(8), AnnealOptions{}); err == nil {
		t.Fatalf("size mismatch accepted")
	}
}

func TestAnnealedScheduleExecutes(t *testing.T) {
	// The searched pattern must actually synchronise at run time, not just
	// under Eq. 3.
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 12, fabric.GigEParams(2))
	if err != nil {
		t.Fatal(err)
	}
	pd := predict.New(f.TrueProfile())
	res, err := Anneal(pd, sched.Tree(12), AnnealOptions{Seed: 11, Budget: 3000})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, 12)
	if err := validateSchedule(w, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnnealTree16(b *testing.B) {
	pd := clusteredPredictor(b, 16)
	seed := sched.Tree(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Anneal(pd, seed, AnnealOptions{Seed: uint64(i), Budget: 500, Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
