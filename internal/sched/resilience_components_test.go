package sched

import "testing"

// TestSilence: silenced ranks stop sending but keep receiving, the original
// schedule is untouched, and out-of-range ranks panic.
func TestSilence(t *testing.T) {
	s := Dissemination(8)
	before := s.Clone()
	q := s.Silence([]int{0, 3})
	if !s.Equal(before) {
		t.Fatal("Silence mutated the receiver")
	}
	for st := range q.Stages {
		if len(q.Stages[st].Row(0)) != 0 || len(q.Stages[st].Row(3)) != 0 {
			t.Fatalf("stage %d still carries sends of a silenced rank", st)
		}
	}
	// Receives to the silenced ranks survive: their columns keep entries.
	colHits := 0
	for st := range q.Stages {
		colHits += len(q.Stages[st].Col(0))
	}
	if colHits == 0 {
		t.Fatal("silencing dropped incoming signals too")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	s.Silence([]int{8})
}

// TestSymmetricDissemination: same stage count as dissemination, needs no
// departure phase (every rank ends fully informed), and twice the signals
// except where +2^s and -2^s coincide.
func TestSymmetricDissemination(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 13, 16} {
		s := SymmetricDissemination(p)
		if !s.IsBarrier() {
			t.Errorf("p=%d: not a barrier", p)
		}
		if got, want := s.NumStages(), Dissemination(p).NumStages(); got != want {
			t.Errorf("p=%d: %d stages, want %d", p, got, want)
		}
	}
}
