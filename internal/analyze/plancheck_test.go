package analyze

import (
	"encoding/json"
	"strings"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// mustPlan assembles a plan from raw op lists, failing the test on
// structural rejection.
func mustPlan(t *testing.T, name string, p, stages int, ops [][]mpi.Step) *run.Plan {
	t.Helper()
	pl, err := run.PlanFromOps(name, p, stages, ops)
	if err != nil {
		t.Fatalf("PlanFromOps(%s): %v", name, err)
	}
	return pl
}

// checks returns the set of check names present in the findings.
func checks(fs []Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Check]++
	}
	return out
}

// TestCheckPlanCleanSchedules: every compiled library schedule passes the
// protocol checks with no Error findings; pairwise-exchange schedules get
// the rendezvous-cycle Warning and nothing more.
func TestCheckPlanCleanSchedules(t *testing.T) {
	for _, s := range []*sched.Schedule{
		sched.Linear(8), sched.Dissemination(8), sched.Tree(8),
		sched.Ring(8), kAryTree(16, 4), sched.SymmetricDissemination(8),
	} {
		pl, err := run.NewPlan(s)
		if err != nil {
			t.Fatalf("NewPlan(%s): %v", s.Name, err)
		}
		for _, f := range CheckPlan(pl) {
			if f.Severity == Error {
				t.Errorf("%s: unexpected Error finding: %s", s.Name, f)
			}
		}
	}
}

// TestCheckPlanRendezvousCycle: recursive doubling exchanges signals within
// each stage — a 2-cycle under strict rendezvous ordering — and must be
// flagged Warning (eager transports complete it), never Error.
func TestCheckPlanRendezvousCycle(t *testing.T) {
	pl, err := run.NewPlan(sched.RecursiveDoubling(8))
	if err != nil {
		t.Fatal(err)
	}
	fs := CheckPlan(pl)
	if n := checks(fs)["plan-rendezvous-cycle"]; n != pl.Stages {
		t.Errorf("recursive-doubling(8): %d rendezvous-cycle findings, want one per stage (%d)", n, pl.Stages)
	}
	for _, f := range fs {
		if f.Severity == Error {
			t.Errorf("unexpected Error: %s", f)
		}
	}
	// One-directional schedules have no cycle.
	pl, err = run.NewPlan(sched.Tree(8))
	if err != nil {
		t.Fatal(err)
	}
	if n := checks(CheckPlan(pl))["plan-rendezvous-cycle"]; n != 0 {
		t.Errorf("tree(8): %d rendezvous-cycle findings, want none", n)
	}
}

// TestCheckPlanUnmatchedSend: a send nobody receives breaks stage
// quiescence and must be an Error naming the edge.
func TestCheckPlanUnmatchedSend(t *testing.T) {
	pl := mustPlan(t, "orphan-send", 2, 1, [][]mpi.Step{
		{{Tag: 0, Sends: []int{1}}},
		{}, // rank 1 never posts the receive
	})
	fs := CheckPlan(pl)
	if n := checks(fs)["plan-unmatched-send"]; n != 1 {
		t.Fatalf("findings %v: want one plan-unmatched-send", fs)
	}
	if (&Report{Findings: fs}).Err() == nil {
		t.Error("unmatched send must gate execution")
	}
}

// TestCheckPlanUnmatchedRecv: a receive nobody sends to deadlocks the
// receiver.
func TestCheckPlanUnmatchedRecv(t *testing.T) {
	pl := mustPlan(t, "orphan-recv", 2, 1, [][]mpi.Step{
		{},
		{{Tag: 0, Recvs: []int{0}}},
	})
	if n := checks(CheckPlan(pl))["plan-unmatched-recv"]; n != 1 {
		t.Fatalf("want one plan-unmatched-recv finding")
	}
}

// TestCheckPlanSilencedPlanFindings: Plan.Silenced produces exactly the
// protocol violations the fault model predicts — the silenced rank's sends
// become unmatched receives at the survivors.
func TestCheckPlanSilencedPlanFindings(t *testing.T) {
	full, err := run.NewPlan(sched.Dissemination(4))
	if err != nil {
		t.Fatal(err)
	}
	fs := CheckPlan(full.Silenced(0))
	n := checks(fs)["plan-unmatched-recv"]
	if n == 0 {
		t.Fatal("silencing rank 0 must orphan its receivers")
	}
	for _, f := range fs {
		if f.Check == "plan-unmatched-recv" && f.Edges[0].From != 0 {
			t.Errorf("orphaned receive from rank %d, only rank 0 was silenced", f.Edges[0].From)
		}
	}
}

// TestCheckPlanDuplicateAndSelf: duplicated messages under one tag are
// wire-level ambiguities, Errors; a self-message cannot even be built, since
// PlanFromOps runs the executors' step check, as NewPlan refuses a
// self-signal.
func TestCheckPlanDuplicateAndSelf(t *testing.T) {
	pl := mustPlan(t, "dup", 2, 1, [][]mpi.Step{
		{{Tag: 0, Sends: []int{1, 1}}},
		{{Tag: 0, Recvs: []int{0, 0}}},
	})
	got := checks(CheckPlan(pl))
	if got["plan-duplicate-message"] != 2 { // one for the send side, one for the recv side
		t.Errorf("findings %v: want duplicate-message on both sides", got)
	}

	if _, err := run.PlanFromOps("self", 2, 1, [][]mpi.Step{{{Tag: 0, Sends: []int{0}}}, {}}); err == nil || !strings.Contains(err.Error(), "addresses itself") {
		t.Errorf("self-send plan built: %v", err)
	}
}

// TestCheckPlanStageMonotonicity: op lists that revisit a stage index reuse
// a live tag window.
func TestCheckPlanStageMonotonicity(t *testing.T) {
	pl := mustPlan(t, "regress", 2, 2, [][]mpi.Step{
		{{Tag: 1, Sends: []int{1}}, {Tag: 0, Sends: []int{1}}},
		{{Tag: 0, Recvs: []int{0}}, {Tag: 1, Recvs: []int{0}}},
	})
	if checks(CheckPlan(pl))["plan-structure"] == 0 {
		t.Error("stage regression not flagged")
	}
}

// TestCheckPlanTagOverflow: more stages than the per-invocation tag budget
// means two in-flight invocations' tag windows collide.
func TestCheckPlanTagOverflow(t *testing.T) {
	ops := [][]mpi.Step{{}, {}}
	pl := mustPlan(t, "wide", 2, run.TagSpan+1, ops)
	if checks(CheckPlan(pl))["plan-tag-overflow"] != 1 {
		t.Error("tag overflow not flagged")
	}
}

// TestVetGate drives the one pre-execution gate: a clean schedule compiles
// and its report carries the plan-level findings too; a non-barrier is
// refused with the report still returned.
func TestVetGate(t *testing.T) {
	pl, rep, err := Vet(sched.RecursiveDoubling(8), Options{})
	if err != nil || pl == nil || pl.P != 8 {
		t.Fatalf("clean schedule refused: plan %v, err %v", pl, err)
	}
	if checks(rep.Findings)["plan-rendezvous-cycle"] == 0 {
		t.Errorf("report %v lacks the compiled plan's findings", rep.Findings)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not serialisable: %v", err)
	}

	m := mat.NewBool(3)
	m.Set(1, 0, true)
	broken := sched.New("broken(3)", 3)
	broken.AddStage(m)
	if pl, rep, err := Vet(broken, Options{}); err == nil || pl != nil || rep == nil || rep.Barrier {
		t.Errorf("non-barrier: plan %v, report %v, err %v", pl, rep, err)
	}
}

// TestVetRefusesResilienceCounterexample: a demanded certification refuses a
// schedule whose counterexample is not Error severity — the case a gate that
// checks Report.Err alone lets through.
func TestVetRefusesResilienceCounterexample(t *testing.T) {
	tree := sched.Tree(8)
	if _, _, err := Vet(tree, Options{}); err != nil {
		t.Fatalf("tree(8) refused without a certification demand: %v", err)
	}
	pl, rep, err := Vet(tree, Options{CertifyK: 1})
	if err == nil || pl != nil {
		t.Fatalf("tree(8) passed the gate under CertifyK=1 (plan %v)", pl)
	}
	cex := rep.ResilienceCounterexample()
	if cex == nil || rep.Err() != nil || !strings.Contains(err.Error(), cex.Message) {
		t.Errorf("refusal %q does not carry the counterexample %+v", err, cex)
	}
}
