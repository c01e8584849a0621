package mat

import (
	"testing"
)

func TestDenseSetAt(t *testing.T) {
	m := NewCosts(3)
	m.Set(0, 2, 1.5)
	if got := m.At(0, 2); got != 1.5 {
		t.Fatalf("At(0,2) = %v, want 1.5", got)
	}
	if m.At(2, 0) != 0 {
		t.Fatalf("untouched entry nonzero")
	}
}

func TestDenseFromRows(t *testing.T) {
	m := CostsFromRows([][]float64{{0, 1}, {2, 0}})
	if m.At(0, 1) != 1 || m.At(1, 0) != 2 {
		t.Fatalf("CostsFromRows entries wrong: %v", m)
	}
}

func TestDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("ragged CostsFromRows did not panic")
		}
	}()
	CostsFromRows([][]float64{{1}, {1, 2}})
}

func TestDenseOutOfRangePanics(t *testing.T) {
	m := NewCosts(2)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestSub(t *testing.T) {
	m := CostsFromRows([][]float64{
		{0, 1, 2, 3},
		{10, 0, 12, 13},
		{20, 21, 0, 23},
		{30, 31, 32, 0},
	})
	s := Sub([]int{1, 3}, m)[0]
	if s.N() != 2 {
		t.Fatalf("Sub size = %d, want 2", s.N())
	}
	if s.At(0, 0) != 0 || s.At(0, 1) != 13 || s.At(1, 0) != 31 || s.At(1, 1) != 0 {
		t.Fatalf("Sub entries wrong:\n%v", s)
	}
}

func TestMaxMinOffDiag(t *testing.T) {
	m := CostsFromRows([][]float64{
		{99, 2, 5},
		{1, 99, 4},
		{3, 6, 99},
	})
	if got := m.MaxOffDiag(); got != 6 {
		t.Fatalf("MaxOffDiag = %v, want 6 (diagonal must be ignored)", got)
	}
	if got := m.MinOffDiag(); got != 1 {
		t.Fatalf("MinOffDiag = %v, want 1", got)
	}
	if NewCosts(1).MaxOffDiag() != 0 {
		t.Fatalf("MaxOffDiag of 1×1 not 0")
	}
}

// TestDenseSubIsIndependent: the restriction of a written-out matrix to every
// rank is a copy, the one a re-probe patches while its source is read.
func TestDenseSubIsIndependent(t *testing.T) {
	m := CostsFromRows([][]float64{{1, 2}, {3, 4}})
	c := Sub([]int{0, 1}, m)[0]
	c.Set(1, 0, 8)
	if c.At(1, 0) != 8 || m.At(1, 0) != 3 || c.At(0, 1) != 2 {
		t.Fatalf("Sub shares storage with its source or dropped an entry")
	}
}

func TestDenseString(t *testing.T) {
	m := CostsFromRows([][]float64{{0, 1.5}, {2, 0}})
	want := "0 1.5\n2 0"
	if m.String() != want {
		t.Fatalf("String() = %q, want %q", m.String(), want)
	}
}
