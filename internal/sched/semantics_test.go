package sched

import (
	"testing"
	"testing/quick"

	"topobarrier/internal/mat"
)

func TestSemanticsPanicOnBadRoot(t *testing.T) {
	s := Tree(4)
	for _, fn := range []func(){
		func() { s.IsGroupBarrier([]int{0, 9}) },
		func() { s.IsGroupBarrier([]int{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIsGroupBarrier(t *testing.T) {
	// A tree barrier lifted onto ranks {1,3,5} of a 7-rank job synchronises
	// exactly that group.
	members := []int{1, 3, 5}
	s := Tree(3).Lift(7, members)
	if !s.IsGroupBarrier(members) {
		t.Fatalf("lifted barrier not a group barrier")
	}
	if s.IsGroupBarrier([]int{0, 1}) {
		t.Fatalf("outsider counted as synchronised")
	}
	if s.IsGroupBarrier(nil) {
		t.Fatalf("empty group accepted")
	}
	if s.IsBarrier() {
		t.Fatalf("sub-group barrier claims global synchronization")
	}
}

// TestBuilderNames pins the component order: the composer keeps the earlier
// builder on a cost tie, so reordering would change tuned schedules.
func TestBuilderNames(t *testing.T) {
	want := []string{"linear", "dissemination", "tree", "ring", "4-ary-tree"}
	ext := ExtendedBuilders()
	if len(ext) != len(want) {
		t.Fatalf("%d extended builders, want %d", len(ext), len(want))
	}
	for i, b := range ext {
		if b.Name != want[i] {
			t.Errorf("ExtendedBuilders()[%d].Name = %q, want %q", i, b.Name, want[i])
		}
	}
	for i, b := range PaperBuilders() {
		if b.Name != want[i] {
			t.Errorf("PaperBuilders()[%d].Name = %q, want %q", i, b.Name, want[i])
		}
	}
}

func TestNewAndAddStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(_, 0) did not panic")
		}
	}()
	New("bad", 0)
}

func TestAddStageSizeMismatchPanics(t *testing.T) {
	s := New("x", 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched AddStage did not panic")
		}
	}()
	s.AddStage(mat.NewBool(4))
}

func TestConcatSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched Concat did not panic")
		}
	}()
	New("a", 3).Concat(New("b", 4))
}

func TestValidateWrongStageSize(t *testing.T) {
	s := New("x", 3)
	s.Stages = append(s.Stages, mat.NewBool(4)) // bypass AddStage
	if err := s.Validate(); err == nil {
		t.Fatalf("wrong-size stage validated")
	}
}

// Property: for random subsets of a dissemination barrier's ranks, group
// synchronization holds (a global barrier synchronises every subgroup).
func TestQuickGroupSubsetOfGlobal(t *testing.T) {
	f := func(seed uint16) bool {
		p := int(seed%12) + 2
		s := Dissemination(p)
		var members []int
		for i := 0; i < p; i++ {
			if (seed>>(uint(i)%16))&1 == 1 {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			members = []int{0}
		}
		return s.IsGroupBarrier(members)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: lifting preserves gather semantics under rank renaming.
func TestQuickLiftPreservesGather(t *testing.T) {
	f := func(seed uint16) bool {
		n := int(seed%6) + 2
		p := n + int(seed%5)
		// Choose n distinct ranks deterministically from the seed.
		ranks := make([]int, 0, n)
		used := map[int]bool{}
		x := uint64(seed) + 1
		for len(ranks) < n {
			x = x*6364136223846793005 + 1442695040888963407
			r := int(x % uint64(p))
			if !used[r] {
				used[r] = true
				ranks = append(ranks, r)
			}
		}
		lifted := TreeArrival(n).Lift(p, ranks)
		// The lifted arrival funnels every *member's* knowledge to the
		// member playing local root (outsiders are untouched by design).
		ks := lifted.Knowledge()
		if len(ks) == 0 {
			return n == 1
		}
		last := ks[len(ks)-1]
		for _, m := range ranks {
			if !last.At(m, ranks[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
