package run

import (
	"reflect"
	"strings"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
)

// TestPlanFromOpsRoundTrip: a plan rebuilt from RankOps output is
// operationally identical to the compiled original.
func TestPlanFromOpsRoundTrip(t *testing.T) {
	orig, err := NewPlan(sched.Tree(8))
	if err != nil {
		t.Fatal(err)
	}
	ops := make([][]mpi.Step, orig.P)
	for r := 0; r < orig.P; r++ {
		ops[r] = orig.RankOps(r)
	}
	back, err := PlanFromOps(orig.Name, orig.P, orig.Stages, ops)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < orig.P; r++ {
		if !reflect.DeepEqual(orig.RankOps(r), back.RankOps(r)) {
			t.Fatalf("rank %d ops differ after round trip", r)
		}
	}
}

// TestPlanFromOpsRejectsStructure: out-of-range ranks and stages, and steps
// carrying a payload, are the only things PlanFromOps polices — protocol
// correctness is CheckPlan's job.
func TestPlanFromOpsRejectsStructure(t *testing.T) {
	cases := []struct {
		name  string
		p, st int
		ops   [][]mpi.Step
	}{
		{"rank-count-mismatch", 2, 1, [][]mpi.Step{{}}},
		{"peer-out-of-range", 2, 1, [][]mpi.Step{{{Tag: 0, Sends: []int{5}}}, {}}},
		{"stage-out-of-range", 2, 1, [][]mpi.Step{{{Tag: 3}}, {}}},
		{"payload", 2, 1, [][]mpi.Step{{{Tag: 0, Sends: []int{1}, Bytes: 8}}, {{Tag: 0, Recvs: []int{0}}}}},
		{"zero-ranks", 0, 1, nil},
	}
	for _, c := range cases {
		if _, err := PlanFromOps(c.name, c.p, c.st, c.ops); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// But an unmatched send is structurally fine here.
	if _, err := PlanFromOps("orphan", 2, 1, [][]mpi.Step{{{Tag: 0, Sends: []int{1}}}, {}}); err != nil {
		t.Errorf("protocol-broken but structurally valid plan rejected: %v", err)
	}
}

// TestPlanFromOpsRunsTheStepGate: a hand-built plan passes the step gate the
// executors run, mpi.CheckStep, so a step addressing its own rank is refused
// when the plan is built, with the executors' text, not when it runs.
func TestPlanFromOpsRunsTheStepGate(t *testing.T) {
	for name, c := range map[string]struct {
		ops  [][]mpi.Step
		want string
	}{
		"self-send":    {[][]mpi.Step{{{Sends: []int{0}}}, nil}, "rank 0 op in stage 0: addresses itself"},
		"self-receive": {[][]mpi.Step{nil, {{Recvs: []int{0, 1}}}}, "rank 1 op in stage 0: addresses itself"},
		"out-of-range": {[][]mpi.Step{{{Recvs: []int{2}}}, nil}, "peer 2 out of range (size 2)"},
	} {
		if _, err := PlanFromOps(name, 2, 1, c.ops); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: PlanFromOps = %v, want the refusal %q", name, err, c.want)
		}
	}
}

// TestPlanSilenced: the silenced rank keeps its receives, loses its sends,
// everyone else is untouched — and the original plan is not mutated.
func TestPlanSilenced(t *testing.T) {
	pl, err := NewPlan(sched.Dissemination(8))
	if err != nil {
		t.Fatal(err)
	}
	origOps0 := pl.RankOps(0)
	sil := pl.Silenced(0)
	for _, op := range sil.RankOps(0) {
		if len(op.Sends) != 0 {
			t.Fatalf("silenced rank still sends in stage %d", op.Tag)
		}
		if len(op.Recvs) == 0 {
			t.Fatalf("silenced rank lost its receives in stage %d", op.Tag)
		}
	}
	for r := 1; r < pl.P; r++ {
		if !reflect.DeepEqual(pl.RankOps(r), sil.RankOps(r)) {
			t.Fatalf("rank %d ops changed by silencing rank 0", r)
		}
	}
	if !reflect.DeepEqual(pl.RankOps(0), origOps0) {
		t.Fatal("Silenced mutated the original plan")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	pl.Silenced(99)
}

// perRankOps is plan compilation as it was before receive lists came from one
// mat.Bool.Cols pass per stage: Col(r) and Row(r) for every rank of every
// non-empty stage. Kept as the reference NewPlan is compared against.
func perRankOps(s *sched.Schedule) [][]mpi.Step {
	ops := make([][]mpi.Step, s.P)
	for k, st := range s.DropEmptyStages().Stages {
		for r := 0; r < s.P; r++ {
			recvs, sends := st.Col(r), st.Row(r)
			if len(recvs) > 0 || len(sends) > 0 {
				ops[r] = append(ops[r], mpi.Step{Tag: k, Recvs: recvs, Sends: sends})
			}
		}
	}
	return ops
}

// TestNewPlanMatchesPerRankCompile: same stage numbering after empty-stage
// elimination, same peer order, and nil — not empty — lists for ranks that
// only send or only receive, across word-boundary sizes.
func TestNewPlanMatchesPerRankCompile(t *testing.T) {
	var cases []*sched.Schedule
	for _, p := range []int{2, 3, 7, 8, 22, 63, 64, 65, 130} {
		kary := sched.KAryTreeArrival(p, 4)
		cases = append(cases, sched.Linear(p), sched.Dissemination(p), sched.Tree(p),
			sched.Ring(p), kary.Concat(kary.ReverseTransposed()), sched.SymmetricDissemination(p))
	}
	// A composed shape with no-op stages in the middle and at both ends.
	hy := sched.New("hybrid-with-gaps", 12)
	hy.AddStage(mat.NewBool(12))
	hy.Concat(sched.MergeEarly("children", 12,
		sched.LinearArrival(5).Lift(12, []int{0, 1, 2, 3, 4}),
		sched.TreeArrival(7).Lift(12, []int{5, 6, 7, 8, 9, 10, 11})))
	hy.AddStage(mat.NewBool(12))
	hy.Concat(sched.TreeArrival(2).Lift(12, []int{0, 5}))
	hy.Concat(hy.Clone().ReverseTransposed())
	cases = append(cases, hy)
	for _, s := range cases {
		pl, err := NewPlan(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		want := perRankOps(s)
		if pl.Stages != s.DropEmptyStages().NumStages() {
			t.Fatalf("%s: %d stages, want %d", s.Name, pl.Stages, s.DropEmptyStages().NumStages())
		}
		for r := 0; r < s.P; r++ {
			if !reflect.DeepEqual(pl.RankOps(r), want[r]) {
				t.Fatalf("%s rank %d:\ngot  %#v\nwant %#v", s.Name, r, pl.RankOps(r), want[r])
			}
		}
	}
}

// TestRankOpsIsCompiledOnce: RankOps hands out the plan's own program, the
// one Execute runs — what lets a transport execute a warm barrier without
// allocating.
func TestRankOpsIsCompiledOnce(t *testing.T) {
	pl, err := NewPlan(sched.Dissemination(16))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = pl.RankOps(3) }); n != 0 {
		t.Fatalf("RankOps allocates %.0f objects per call", n)
	}
	if ops := pl.RankOps(3); &ops[0] != &pl.steps[3][0] {
		t.Fatalf("RankOps returns a copy of the program Execute runs")
	}
}
