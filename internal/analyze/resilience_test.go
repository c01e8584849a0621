package analyze

import (
	"testing"

	"topobarrier/internal/sched"
)

// brokenBy replays a counterexample with the independent schedule-level
// machinery: silence the set, recompute Eq. 3, and ask whether the survivors
// still close. The certifier must agree with this ground truth.
func brokenBy(s *sched.Schedule, faults []int) bool {
	inFault := make(map[int]bool, len(faults))
	for _, f := range faults {
		inFault[f] = true
	}
	var survivors []int
	for i := 0; i < s.P; i++ {
		if !inFault[i] {
			survivors = append(survivors, i)
		}
	}
	return !s.Silence(faults).IsGroupBarrier(survivors)
}

// TestCertifyClassicSchedulesNotResilient pins the central negative result:
// every classic component — dissemination included — has a 1-fault
// counterexample. Dissemination carries each knowledge pair along exactly
// one chain (the binary decomposition of the rank distance), so silencing
// any single rank stalls the pairs routed through it; linear and tree funnel
// everything through rank 0; the ring's token dies with any interior rank.
func TestCertifyClassicSchedulesNotResilient(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		for _, s := range []*sched.Schedule{
			sched.Dissemination(p),
			sched.Linear(p),
			sched.Tree(p),
			sched.RecursiveDoubling(p),
			sched.Ring(p),
			kAryTree(p, 4),
		} {
			res := CertifyK(s, 1, ResilienceOptions{})
			if res.Certified {
				t.Errorf("%s: certified 1-resilient; expected a counterexample", s.Name)
				continue
			}
			if !res.Exhaustive {
				t.Errorf("%s: size-1 search should be exhaustive", s.Name)
			}
			if len(res.Counterexample) != 1 {
				t.Errorf("%s: counterexample %v, want a single rank", s.Name, res.Counterexample)
			}
			if len(res.Stalled) == 0 {
				t.Errorf("%s: counterexample without stalled-pair witnesses", s.Name)
			}
			if !brokenBy(s, res.Counterexample) {
				t.Errorf("%s: counterexample %v does not actually break the schedule", s.Name, res.Counterexample)
			}
		}
	}
}

// TestCertifySymmetricDissemination pins the positive result: the
// signed-digit dissemination variant is provably 1-fault resilient at every
// library size, because every knowledge pair has either a direct signal or
// two internally rank-disjoint chains.
func TestCertifySymmetricDissemination(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		s := sched.SymmetricDissemination(p)
		if !s.IsBarrier() {
			t.Fatalf("symmetric-dissemination(%d) is not a barrier", p)
		}
		res := CertifyK(s, 1, ResilienceOptions{})
		if !res.Certified || !res.Exhaustive {
			t.Errorf("symmetric-dissemination(%d): certified=%v exhaustive=%v cex=%v, want exhaustive proof",
				p, res.Certified, res.Exhaustive, res.Counterexample)
		}
		if res.SubsetsChecked != p {
			t.Errorf("symmetric-dissemination(%d): checked %d subsets, want %d", p, res.SubsetsChecked, p)
		}
	}
}

// TestCertifyRepeatedDissemination: doubling a dissemination schedule buys a
// second fault budget — the second pass re-propagates everything around the
// silenced ranks.
func TestCertifyRepeatedDissemination(t *testing.T) {
	for _, p := range []int{8, 16} {
		s := doubled(sched.Dissemination(p))
		res := CertifyK(s, 2, ResilienceOptions{})
		if !res.Certified || !res.Exhaustive {
			t.Errorf("dissemination(%d)×2: certified=%v exhaustive=%v cex=%v, want exhaustive 2-fault proof",
				p, res.Certified, res.Exhaustive, res.Counterexample)
		}
	}
}

// TestCounterexampleMinimality: every counterexample the certifier reports
// must break the schedule, and every proper subset of it must not.
func TestCounterexampleMinimality(t *testing.T) {
	cases := []*sched.Schedule{
		sched.Linear(8),
		sched.Tree(8),
		sched.SymmetricDissemination(8), // k=2 counterexample
	}
	for _, s := range cases {
		for k := 1; k <= 2; k++ {
			res := CertifyK(s, k, ResilienceOptions{})
			if res.Certified {
				continue
			}
			cex := res.Counterexample
			if !brokenBy(s, cex) {
				t.Errorf("%s k=%d: reported counterexample %v does not break the schedule", s.Name, k, cex)
			}
			for i := range cex {
				sub := append(append([]int(nil), cex[:i]...), cex[i+1:]...)
				if len(sub) > 0 && brokenBy(s, sub) {
					t.Errorf("%s k=%d: counterexample %v is not minimal, subset %v already breaks it",
						s.Name, k, cex, sub)
				}
			}
		}
	}
}

// TestCertifyPrunedSearch forces the pruned path with a budget far below
// C(64,2) and checks both outcomes keep their honesty contract: a
// counterexample found by pruning is exact and minimal, a clean pass is
// flagged non-exhaustive.
func TestCertifyPrunedSearch(t *testing.T) {
	// symmetric-dissemination(64) is 1-resilient but has 2-fault
	// counterexamples; the pruned search must find one.
	s := sched.SymmetricDissemination(64)
	res := CertifyK(s, 2, ResilienceOptions{MaxSubsets: 200})
	if res.Exhaustive {
		t.Fatalf("budget 200 cannot cover C(64,2)+64 subsets, yet Exhaustive=true")
	}
	if res.Certified {
		t.Fatalf("pruned search missed the 2-fault counterexample of %s", s.Name)
	}
	if !brokenBy(s, res.Counterexample) {
		t.Errorf("pruned counterexample %v does not break the schedule", res.Counterexample)
	}
	for i := range res.Counterexample {
		sub := append(append([]int(nil), res.Counterexample[:i]...), res.Counterexample[i+1:]...)
		if brokenBy(s, sub) {
			t.Errorf("pruned counterexample %v not minimal: %v breaks it too", res.Counterexample, sub)
		}
	}
	if res.SubsetsChecked > 200 {
		t.Errorf("checked %d subsets, budget was 200", res.SubsetsChecked)
	}

	// Doubled dissemination at P=64 has no 2-fault counterexample; under the
	// same budget the verdict must be certified-but-not-proof.
	d := doubled(sched.Dissemination(64))
	res = CertifyK(d, 2, ResilienceOptions{MaxSubsets: 200})
	if !res.Certified || res.Exhaustive {
		t.Errorf("%s: certified=%v exhaustive=%v, want non-exhaustive pass", d.Name, res.Certified, res.Exhaustive)
	}
}

// TestCertifyTrivialBudgets: k ≤ 0 and budgets that leave fewer than two
// survivors are vacuously certified.
func TestCertifyTrivialBudgets(t *testing.T) {
	s := sched.Dissemination(4)
	if res := CertifyK(s, 0, ResilienceOptions{}); !res.Certified {
		t.Error("k=0 must certify vacuously")
	}
	if res := CertifyK(s, 3, ResilienceOptions{}); !res.Certified {
		t.Error("k=P-1 leaves one survivor: vacuously certified")
	}
}

// TestCriticalEdges: in a linear barrier every send is a single point of
// failure. Symmetric dissemination — though 1-RANK-resilient — still has
// exactly P critical MESSAGES: in its final stage +2^(last) and -2^(last)
// coincide mod P, so each antipodal send is the unique closer of one pair.
// Rank resilience and message resilience are different properties; doubled
// dissemination has neither kind of single point of failure.
func TestCriticalEdges(t *testing.T) {
	lin := sched.Linear(8)
	edges := CriticalEdges(lin)
	if want := lin.SignalCount(); len(edges) != want {
		t.Errorf("linear(8): %d critical edges, want all %d sends", len(edges), want)
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].Stalled < edges[i].Stalled {
			t.Errorf("critical edges not sorted by damage: %v before %v", edges[i-1], edges[i])
		}
	}
	sd := sched.SymmetricDissemination(8)
	sdEdges := CriticalEdges(sd)
	if len(sdEdges) != 8 {
		t.Errorf("symmetric-dissemination(8): %d critical edges, want the 8 final-stage antipodal sends", len(sdEdges))
	}
	last := sd.NumStages() - 1
	for _, e := range sdEdges {
		if e.Edge.Stage != last || e.Stalled != 1 || e.Edge.To != (e.Edge.From+4)%8 {
			t.Errorf("unexpected critical edge %+v, want final-stage antipodal send stalling 1 pair", e)
		}
	}
	if edges := CriticalEdges(doubled(sched.Dissemination(8))); len(edges) != 0 {
		t.Errorf("dissemination(8)×2: %d critical edges, want none", len(edges))
	}
	// CriticalEdges must not mutate its input.
	if !lin.Equal(sched.Linear(8)) {
		t.Error("CriticalEdges mutated the schedule")
	}
}

// TestAnalyzeResilienceWiring: the Analyze entry point surfaces the
// certifier and critical-edge sweeps as findings with the documented checks
// and severities.
func TestAnalyzeResilienceWiring(t *testing.T) {
	rep := Analyze(sched.Dissemination(8), Options{SkipRedundancy: true, CertifyK: 1, CriticalEdges: true})
	if rep.Err() != nil {
		t.Fatalf("dissemination(8) must stay executable: %v", rep.Err())
	}
	cex := rep.ResilienceCounterexample()
	if cex == nil {
		t.Fatal("no resilience-counterexample finding for dissemination(8) at k=1")
	}
	if cex.Severity != Warning || cex.K != 1 || len(cex.Ranks) != 1 {
		t.Errorf("counterexample finding malformed: %+v", cex)
	}
	hasWitness, hasCritical := false, false
	for _, f := range rep.Findings {
		switch f.Check {
		case "resilience-witness":
			hasWitness = true
		case "critical-edges":
			hasCritical = true
		}
	}
	if !hasWitness || !hasCritical {
		t.Errorf("witness=%v critical=%v, want both finding families", hasWitness, hasCritical)
	}

	rep = Analyze(sched.SymmetricDissemination(8), Options{SkipRedundancy: true, CertifyK: 1})
	if rep.ResilienceCounterexample() != nil {
		t.Error("symmetric-dissemination(8) reported a counterexample")
	}
	certified := false
	for _, f := range rep.Findings {
		if f.Check == "resilience-certified" && f.K == 1 {
			certified = true
		}
	}
	if !certified {
		t.Error("no resilience-certified finding for symmetric-dissemination(8)")
	}

	// Non-barriers must skip certification silently: the witnesses already
	// explain the failure.
	rep = Analyze(sched.LinearArrival(4), Options{CertifyK: 1})
	for _, f := range rep.Findings {
		if f.Check == "resilience-certified" || f.Check == "resilience-counterexample" {
			t.Errorf("non-barrier got resilience finding %q", f.Check)
		}
	}
}
