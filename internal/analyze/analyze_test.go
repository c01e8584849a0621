package analyze

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
)

// kAryTree is the full k-ary tree barrier: arrival plus its transposed
// reversal.
func kAryTree(p, k int) *sched.Schedule {
	arr := sched.KAryTreeArrival(p, k)
	return arr.Concat(arr.ReverseTransposed())
}

// doubled runs the schedule's stages twice over — the redundancy that buys a
// dissemination barrier its second fault budget.
func doubled(s *sched.Schedule) *sched.Schedule {
	s.Name += "×2"
	return s.Concat(s)
}

// uniformPredictor builds a predictor over a flat profile, so cost deltas
// are well-defined without a cluster model.
func uniformPredictor(t *testing.T, p int) *predict.Predictor {
	t.Helper()
	pf := profile.New("uniform-test", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			pf.L.Set(i, j, 50e-6)
			pf.O.Set(i, j, 5e-6)
		}
	}
	if err := pf.Validate(); err != nil {
		t.Fatal(err)
	}
	return predict.New(pf)
}

// TestPaperAlgorithmsAreClean confirms the paper's three component
// algorithms produce zero Error-severity findings at several sizes.
func TestPaperAlgorithmsAreClean(t *testing.T) {
	for _, p := range []int{2, 5, 8, 16} {
		for _, s := range []*sched.Schedule{sched.Linear(p), sched.Dissemination(p), sched.Tree(p)} {
			rep := Analyze(s, Options{})
			if !rep.Barrier {
				t.Errorf("%s: analyzer says not a barrier", s.Name)
			}
			if err := rep.Err(); err != nil {
				t.Errorf("%s: unexpected error findings: %v\n%s", s.Name, err, rep)
			}
		}
	}
}

// TestWitnessForBrokenSchedule checks that a schedule violating Eq. 3
// yields a concrete stalled pair, the stall stage, and a chain diagnosis.
func TestWitnessForBrokenSchedule(t *testing.T) {
	// 3 ranks: only rank 1 signals rank 0. Ranks are mutually ignorant
	// otherwise; e.g. rank 2's arrival reaches nobody.
	s := sched.New("broken(3)", 3)
	m := mat.NewBool(3)
	m.Set(1, 0, true)
	s.AddStage(m)

	rep := Analyze(s, Options{})
	if rep.Barrier {
		t.Fatal("analyzer claims broken schedule is a barrier")
	}
	if rep.Err() == nil {
		t.Fatal("no error findings for a non-barrier")
	}
	var pairs []Pair
	for _, f := range rep.Findings {
		if f.Check == "sync-witness" && f.Pair != nil {
			pairs = append(pairs, *f.Pair)
			if f.Severity != Error {
				t.Errorf("witness severity = %v, want Error", f.Severity)
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatalf("no (i,j) witness pairs reported:\n%s", rep)
	}
	// Rank 2 never learns of rank 0: pair {0,2} must be among the missing.
	found := false
	for _, pr := range pairs {
		if pr.From == 0 && pr.To == 2 {
			found = true
		}
	}
	if !found && len(pairs) < 5 {
		t.Errorf("expected pair (0,2) among witnesses, got %v", pairs)
	}
}

// TestWitnessChainBreak checks the chain counterexample on a pattern whose
// static path exists but runs against stage order: stage 0 carries 1→2,
// stage 1 carries 0→1 — knowledge of rank 0 can reach rank 1, but the hop
// 1→2 never recurs, so rank 2 never learns of rank 0.
func TestWitnessChainBreak(t *testing.T) {
	s := sched.New("misordered(3)", 3)
	a := mat.NewBool(3)
	a.Set(1, 2, true)
	b := mat.NewBool(3)
	b.Set(0, 1, true)
	s.AddStage(a)
	s.AddStage(b)

	rep := Analyze(s, Options{MaxWitnesses: 9})
	var hit *Finding
	for i, f := range rep.Findings {
		if f.Check == "sync-witness" && f.Pair != nil && f.Pair.From == 0 && f.Pair.To == 2 {
			hit = &rep.Findings[i]
		}
	}
	if hit == nil {
		t.Fatalf("no witness for pair (0,2):\n%s", rep)
	}
	if len(hit.Chain) != 3 || hit.Chain[0] != 0 || hit.Chain[2] != 2 {
		t.Errorf("chain = %v, want [0 1 2]", hit.Chain)
	}
	if !strings.Contains(hit.Message, "breaks at hop 1→2") {
		t.Errorf("message lacks breaking hop: %s", hit.Message)
	}
}

// TestRedundancyOnLinearWithExtraEdges builds the acceptance fixture: a
// linear barrier with gratuitous extra signals; the analyzer must identify
// removable redundant signals and price them.
func TestRedundancyOnLinearWithExtraEdges(t *testing.T) {
	p := 6
	s := sched.Linear(p)
	s.Name = "linear-plus-extras(6)"
	// Extra edges: every rank also signals rank 1 on arrival, and rank 0
	// additionally signals rank p-1 twice on departure.
	for i := 2; i < p; i++ {
		s.Stages[0].Set(i, 1, true)
	}
	extra := mat.NewBool(p)
	extra.Set(0, p-1, true)
	s.AddStage(extra)
	if !s.IsBarrier() {
		t.Fatal("fixture must remain a barrier")
	}

	rep := Analyze(s, Options{Predictor: uniformPredictor(t, p)})
	if err := rep.Err(); err != nil {
		t.Fatalf("fixture should carry no error findings: %v", err)
	}
	var edges []Edge
	var summary *Finding
	for i, f := range rep.Findings {
		switch f.Check {
		case "redundant-signals":
			edges = f.Edges
		case "redundant-stage":
			// The duplicate departure stage is fully removable too.
		case "redundancy-summary":
			summary = &rep.Findings[i]
		}
	}
	if len(edges) == 0 {
		// The whole extra stage may be consumed by the stage pass; the
		// extra arrival edges must still be flagged as signals.
		t.Fatalf("no removable redundant signals found:\n%s", rep)
	}
	hasArrivalExtra := false
	for _, e := range edges {
		if e.Stage == 0 && e.To == 1 {
			hasArrivalExtra = true
		}
	}
	if !hasArrivalExtra {
		t.Errorf("extra arrival edges (→1 in stage 0) not flagged: %v", edges)
	}
	if summary == nil {
		t.Fatal("no redundancy summary finding")
	}
	if summary.CostDelta <= 0 {
		t.Errorf("predicted cost delta = %g, want > 0", summary.CostDelta)
	}
}

// TestRedundancyPreservesMinimality: on the already-minimal dissemination
// pattern no stage is removable (each stage doubles knowledge reach).
func TestRedundancyStagesOnDissemination(t *testing.T) {
	rep := Analyze(sched.Dissemination(8), Options{})
	for _, f := range rep.Findings {
		if f.Check == "redundant-stage" {
			t.Errorf("dissemination(8) stage flagged removable: %s", f.Message)
		}
	}
}

// TestStructuralLints exercises empty schedules, empty stages, silent and
// deaf ranks, and fan hotspots.
func TestStructuralLints(t *testing.T) {
	empty := sched.New("empty(4)", 4)
	rep := Analyze(empty, Options{})
	if rep.Err() == nil {
		t.Error("empty schedule over 4 ranks must be an error")
	}
	if got := findChecks(rep, "empty-schedule"); got != 1 {
		t.Errorf("empty-schedule findings = %d, want 1", got)
	}

	s := sched.Linear(4)
	s.AddStage(mat.NewBool(4)) // trailing no-op
	rep = Analyze(s, Options{})
	if got := findChecks(rep, "empty-stage"); got != 1 {
		t.Errorf("empty-stage findings = %d, want 1\n%s", got, rep)
	}

	// Rank 3 neither sends nor receives.
	b := sched.New("partial(4)", 4)
	m := mat.NewBool(4)
	m.Set(1, 0, true)
	m.Set(2, 0, true)
	m.Set(0, 1, true)
	m.Set(0, 2, true)
	b.AddStage(m)
	rep = Analyze(b, Options{})
	if got := findChecks(rep, "silent-rank"); got != 1 {
		t.Errorf("silent-rank findings = %d, want 1\n%s", got, rep)
	}
	if got := findChecks(rep, "deaf-rank"); got != 1 {
		t.Errorf("deaf-rank findings = %d, want 1\n%s", got, rep)
	}

	// linear(12): rank 0 has fan-in 11 ≥ default threshold 8.
	rep = Analyze(sched.Linear(12), Options{})
	if got := findChecks(rep, "fan-in-hotspot"); got == 0 {
		t.Errorf("linear(12) fan-in hotspot not flagged\n%s", rep)
	}
	rep = Analyze(sched.Linear(12), Options{FanThreshold: -1})
	if got := findChecks(rep, "fan-in-hotspot"); got != 0 {
		t.Errorf("hotspot lints not disabled by negative threshold")
	}
}

// TestDepartureShape checks the provenance lint: a "tree(…)"-named schedule
// whose departure is not the transposed reversal of its arrival is flagged,
// while the genuine algorithms are not.
func TestDepartureShape(t *testing.T) {
	good := sched.Tree(8)
	rep := Analyze(good, Options{})
	if got := findChecks(rep, "departure-shape"); got != 0 {
		t.Errorf("genuine tree(8) flagged:\n%s", rep)
	}

	bad := sched.Tree(4)
	// Corrupt the departure: replace it with a direct broadcast from root.
	n := bad.NumStages()
	m := mat.NewBool(4)
	m.Set(0, 1, true)
	m.Set(0, 2, true)
	m.Set(0, 3, true)
	bad.Stages[n-1] = m
	bad.Stages[n-2] = mat.NewBool(4)
	if !bad.IsBarrier() {
		t.Fatal("corrupted fixture must still be a barrier")
	}
	rep = Analyze(bad, Options{})
	if got := findChecks(rep, "departure-shape"); got == 0 {
		t.Errorf("corrupted tree departure not flagged:\n%s", rep)
	}

	// Hybrids make no provenance claim.
	hyb := bad.Clone()
	hyb.Name = "hybrid(4)"
	rep = Analyze(hyb, Options{})
	if got := findChecks(rep, "departure-shape"); got != 0 {
		t.Errorf("hybrid flagged for departure shape")
	}
}

// TestDepartureShapeAgreesWithComponents pins the provenance lint's own name
// list to the composer's catalogue: named after a component, its bare
// arrival is flagged exactly when the component needs a departure, and the
// arrival followed by its transposed reversal never is.
func TestDepartureShapeAgreesWithComponents(t *testing.T) {
	for _, b := range sched.ExtendedBuilders() {
		for _, p := range []int{4, 8, 13} {
			name := fmt.Sprintf("%s(%d)", b.Name, p)
			arr := b.Arrival(p)
			arr.Name = name
			if got := findChecks(Analyze(arr, Options{SkipRedundancy: true}), "departure-shape") > 0; got != b.NeedsDeparture {
				t.Errorf("%s arrival only: departure-shape finding %v, NeedsDeparture %v", name, got, b.NeedsDeparture)
			}
			full := arr.Clone().Concat(arr.ReverseTransposed())
			full.Name = name
			if rep := Analyze(full, Options{SkipRedundancy: true}); findChecks(rep, "departure-shape") != 0 {
				t.Errorf("%s with its transposed departure flagged:\n%s", name, rep)
			}
		}
	}
}

// TestReportJSONRoundTrip ensures findings survive machine consumption.
func TestReportJSONRoundTrip(t *testing.T) {
	s := sched.New("broken(3)", 3)
	m := mat.NewBool(3)
	m.Set(1, 0, true)
	s.AddStage(m)
	rep := Analyze(s, Options{})

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"severity":"error"`) {
		t.Errorf("JSON lacks string severities: %s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schedule != rep.Schedule || len(back.Findings) != len(rep.Findings) {
		t.Errorf("round trip changed report: %+v vs %+v", back, rep)
	}
	for i := range back.Findings {
		if back.Findings[i].Severity != rep.Findings[i].Severity {
			t.Errorf("finding %d severity changed in round trip", i)
		}
	}
}

// TestAnalyzeAgreesWithIsBarrier cross-checks the verdict across the
// component algorithms, their arrival-only phases, and degenerate cases.
func TestAnalyzeAgreesWithIsBarrier(t *testing.T) {
	cases := []*sched.Schedule{
		sched.Linear(1), sched.Linear(7), sched.LinearArrival(7),
		sched.Dissemination(6), sched.Tree(9), sched.TreeArrival(9),
		sched.Ring(5), sched.RingArrival(5), sched.RecursiveDoubling(8),
		kAryTree(13, 3), sched.New("void(3)", 3),
	}
	for _, s := range cases {
		rep := Analyze(s, Options{})
		if rep.Barrier != s.IsBarrier() {
			t.Errorf("%s: analyzer verdict %v, IsBarrier %v", s.Name, rep.Barrier, s.IsBarrier())
		}
		if !rep.Barrier && rep.Err() == nil {
			t.Errorf("%s: non-barrier without error findings", s.Name)
		}
	}
}

func findChecks(rep *Report, check string) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Check == check {
			n++
		}
	}
	return n
}
