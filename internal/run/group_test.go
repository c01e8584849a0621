package run

import (
	"slices"
	"testing"

	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
)

// groupTree lifts a binomial tree barrier onto a subset of global ranks and
// compiles it as it stands: a sub-group barrier is no global barrier, so
// NewPlan would refuse it.
func groupTree(t *testing.T, p int, members []int) *Plan {
	t.Helper()
	s := sched.Tree(len(members)).Lift(p, members)
	if !s.IsGroupBarrier(members) {
		t.Fatalf("lifted tree is not a group barrier")
	}
	return compile(s)
}

func TestDisjointGroupBarriers(t *testing.T) {
	// Ranks 0-11 and 12-23 barrier independently and concurrently
	// (Ramakrishnan & Scherson's disjoint barrier setting, cited in §II).
	// Delaying a member of group A must hold back all of A but none of B.
	const p = 24
	groupA := make([]int, 12)
	groupB := make([]int, 12)
	for i := range groupA {
		groupA[i] = i
		groupB[i] = 12 + i
	}
	planA, planB := groupTree(t, p, groupA), groupTree(t, p, groupB)

	w := testWorld(t, p, 1)
	const delay = 0.5
	progs := make([]mpi.Program, p)
	for r := range progs {
		progs[r] = mpi.Program{Steps: planA.Func()(r, p)}
		if r >= 12 {
			progs[r] = mpi.Program{Steps: planB.Func()(r, p), Bases: []int{TagSpan}}
		}
	}
	progs[3].Steps = append([]mpi.Step{{Compute: delay}}, progs[3].Steps...)
	if _, err := w.Run(progs); err != nil {
		t.Fatal(err)
	}
	exit := make([]float64, p)
	for r, pg := range progs {
		exit[r] = pg.End
	}
	for _, r := range groupA {
		if exit[r] < delay {
			t.Fatalf("group A rank %d exited at %g before delayed member entered", r, exit[r])
		}
	}
	for _, r := range groupB {
		if exit[r] >= delay {
			t.Fatalf("group B rank %d waited for group A's delay (exit %g)", r, exit[r])
		}
	}
}

func TestNestedBarriers(t *testing.T) {
	// An inner barrier over half the job nested inside a global barrier:
	// the inner phase must not synchronise outsiders, the following global
	// phase must synchronise everyone.
	const p = 16
	inner := make([]int, 8)
	for i := range inner {
		inner[i] = i
	}
	innerPlan := groupTree(t, p, inner)
	globalPlan, err := NewPlan(sched.Tree(p))
	if err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, p, 2)
	err = Validate(w, func(rank, p int) []mpi.Step {
		var steps []mpi.Step
		if rank < 8 {
			steps = slices.Clone(innerPlan.Func()(rank, p))
		}
		for _, st := range globalPlan.Func()(rank, p) {
			st.Tag += 512
			steps = append(steps, st)
		}
		return steps
	}, 0.5, []int{0, 7, 8, 15})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsGroupBarrierSubsetOfGlobal(t *testing.T) {
	// Every global barrier is also a group barrier for any subset.
	s := sched.Dissemination(9)
	if !s.IsGroupBarrier([]int{0, 4, 8}) {
		t.Fatalf("global barrier fails subset check")
	}
}
