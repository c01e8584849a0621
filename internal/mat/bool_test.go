package mat

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewBoolStartsEmpty(t *testing.T) {
	m := NewBool(7)
	if m.N() != 7 {
		t.Fatalf("N() = %d, want 7", m.N())
	}
	if !m.IsZero() {
		t.Fatalf("new matrix is not zero")
	}
	if m.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", m.Count())
	}
}

func TestBoolSetAtRoundTrip(t *testing.T) {
	m := NewBool(70) // spans two words per row
	coords := [][2]int{{0, 0}, {0, 63}, {0, 64}, {3, 69}, {69, 0}, {42, 42}}
	for _, c := range coords {
		m.Set(c[0], c[1], true)
	}
	for _, c := range coords {
		if !m.At(c[0], c[1]) {
			t.Errorf("At(%d,%d) = false after Set", c[0], c[1])
		}
	}
	if m.Count() != len(coords) {
		t.Fatalf("Count() = %d, want %d", m.Count(), len(coords))
	}
	m.Set(0, 64, false)
	if m.At(0, 64) {
		t.Fatalf("At(0,64) still true after clearing")
	}
	if m.Count() != len(coords)-1 {
		t.Fatalf("Count() = %d after clear, want %d", m.Count(), len(coords)-1)
	}
}

func TestBoolOutOfRangePanics(t *testing.T) {
	m := NewBool(4)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", c[0], c[1])
				}
			}()
			m.At(c[0], c[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != (i == j) {
				t.Fatalf("Identity At(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestRowAndCol(t *testing.T) {
	m := NewBool(66)
	m.Set(1, 0, true)
	m.Set(1, 64, true)
	m.Set(1, 65, true)
	m.Set(5, 64, true)
	got := m.Row(1)
	want := []int{0, 64, 65}
	if len(got) != len(want) {
		t.Fatalf("Row(1) = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Row(1) = %v, want %v", got, want)
		}
	}
	col := m.Col(64)
	if len(col) != 2 || col[0] != 1 || col[1] != 5 {
		t.Fatalf("Col(64) = %v, want [1 5]", col)
	}
	if r := m.Row(0); len(r) != 0 {
		t.Fatalf("Row(0) = %v, want empty", r)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := BoolFromRows([][]bool{
		{false, true, false},
		{false, false, true},
		{true, false, false},
	})
	tt := m.T().T()
	if !tt.Equal(m) {
		t.Fatalf("double transpose differs:\n%v\nvs\n%v", tt, m)
	}
	tr := m.T()
	if !tr.At(1, 0) || !tr.At(2, 1) || !tr.At(0, 2) {
		t.Fatalf("transpose entries wrong:\n%v", tr)
	}
}

// TestMulMatchesNaive holds the semiring product inside Propagate (K + K·S)
// to its definition, entry by entry.
func TestMulMatchesNaive(t *testing.T) {
	a := BoolFromRows([][]bool{
		{true, false, true, false},
		{false, false, false, false},
		{false, true, false, true},
		{true, true, true, true},
	})
	b := BoolFromRows([][]bool{
		{false, true, false, false},
		{true, false, false, false},
		{false, false, false, true},
		{false, false, true, false},
	})
	got := Propagate(a, b)
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := a.At(i, j)
			for k := 0; k < n; k++ {
				if a.At(i, k) && b.At(k, j) {
					want = true
				}
			}
			if got.At(i, j) != want {
				t.Fatalf("(K + K·S) At(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	m := NewBool(9)
	m.Set(0, 8, true)
	m.Set(4, 4, true)
	m.Set(7, 2, true)
	id := Identity(9)
	if !Propagate(m, id).Equal(m) {
		t.Fatalf("m + m·I != m")
	}
	if !Propagate(id, m).Equal(m.Clone().Or(id)) {
		t.Fatalf("I + I·m != I + m")
	}
}

func TestOrAndClone(t *testing.T) {
	a := NewBool(3)
	a.Set(0, 1, true)
	b := NewBool(3)
	b.Set(2, 2, true)
	c := a.Clone()
	c.Or(b)
	if !c.At(0, 1) || !c.At(2, 2) {
		t.Fatalf("Or missing entries:\n%v", c)
	}
	if a.At(2, 2) {
		t.Fatalf("Or mutated the clone source")
	}
}

func TestPropagateLinearBarrierKnowledge(t *testing.T) {
	// The 4-rank linear barrier of the paper's Figure 2: ranks 1..3 signal
	// rank 0, then rank 0 signals everyone (transpose). After both stages all
	// knowledge entries must be set (Eq. 3 barrier condition).
	s0 := NewBool(4)
	for i := 1; i < 4; i++ {
		s0.Set(i, 0, true)
	}
	s1 := s0.T()
	k := Propagate(Identity(4), s0)
	// After stage 0, rank 0 knows all arrivals.
	for i := 0; i < 4; i++ {
		if !k.At(i, 0) {
			t.Fatalf("rank 0 does not know arrival of %d after stage 0:\n%v", i, k)
		}
	}
	if k.Count() == 16 {
		t.Fatalf("knowledge complete after arrival stage only")
	}
	k = Propagate(k, s1)
	if k.Count() != 16 {
		t.Fatalf("linear barrier knowledge incomplete:\n%v", k)
	}
}

func TestPropagateWithoutSignalsIsNoop(t *testing.T) {
	k := Identity(6)
	k2 := Propagate(k, NewBool(6))
	if !k2.Equal(k) {
		t.Fatalf("propagating the zero stage changed knowledge")
	}
}

func TestBoolString(t *testing.T) {
	m := NewBool(2)
	m.Set(0, 1, true)
	want := "0 1\n0 0"
	if m.String() != want {
		t.Fatalf("String() = %q, want %q", m.String(), want)
	}
}

func TestBoolFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("ragged BoolFromRows did not panic")
		}
	}()
	BoolFromRows([][]bool{{true}, {true, false}})
}

// Property: Propagate is monotone (never clears knowledge) and idempotent on
// a saturated matrix.
func TestQuickPropagateMonotone(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%6) + 2
		s := randBool(n, uint64(seed)+3)
		k := Identity(n)
		next := Propagate(k, s)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if k.At(i, j) && !next.At(i, j) {
					return false
				}
			}
		}
		full := NewBool(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				full.Set(i, j, true)
			}
		}
		return Propagate(full, s).Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randBool(n int, seed uint64) *Bool {
	m := NewBool(n)
	x := seed
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&3 == 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// TestPopcountTrailingZeros pins the two math/bits scans behind the public
// accessors — Count (population count) and Row (trailing-zeros walk) — on the
// empty, the full and a mixed word.
func TestPopcountTrailingZeros(t *testing.T) {
	m := NewBool(64)
	if m.Count() != 0 || len(m.Row(0)) != 0 {
		t.Fatalf("empty matrix: Count %d, Row(0) %v", m.Count(), m.Row(0))
	}
	for _, j := range []int{0, 1, 3} {
		m.Set(1, j, true)
	}
	if got := m.Row(1); m.Count() != 3 || len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("word 0b1011: Count %d, Row(1) %v", m.Count(), got)
	}
	for j := 0; j < 64; j++ {
		m.Set(2, j, true)
	}
	if m.Count() != 3+64 || len(m.Row(2)) != 64 {
		t.Fatalf("full word: Count %d, Row(2) has %d entries", m.Count(), len(m.Row(2)))
	}
}

func BenchmarkPropagate64(b *testing.B) {
	s := randBool(64, 11)
	k := Identity(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k = Propagate(Identity(64), s)
	}
	if k.N() != 64 {
		b.Fatal("unexpected")
	}
}

var _ = strings.TrimSpace // keep strings imported if dumps are removed

func TestRowWordsAliasesStorage(t *testing.T) {
	m := NewBool(70) // two words per row
	m.Set(3, 65, true)
	w := m.RowWords(3)
	if len(w) != 2 {
		t.Fatalf("RowWords length %d, want 2", len(w))
	}
	if w[1]&(1<<1) == 0 {
		t.Fatalf("bit 65 not visible through RowWords")
	}
	// Writes through the view mutate the matrix.
	w[0] |= 1 << 7
	if !m.At(3, 7) {
		t.Fatalf("write through RowWords not visible via At")
	}
}

func TestEqualFastPaths(t *testing.T) {
	a := randBool(40, 7)
	if !a.Equal(a) {
		t.Fatalf("matrix not equal to itself")
	}
	if !a.Equal(a.Clone()) {
		t.Fatalf("Equal(clone) failed")
	}
	if a.Equal(NewBool(40)) {
		t.Fatalf("non-empty matrix equal to empty")
	}
}

// TestTrailingZerosExhaustive walks the set-bit scan over every bit position
// of both words of a two-word row, with the top bit set as a decoy.
func TestTrailingZerosExhaustive(t *testing.T) {
	const n = 128
	for b := 0; b < n-1; b++ {
		m := NewBool(n)
		m.Set(5, b, true)
		m.Set(5, n-1, true)
		if got := m.Row(5); len(got) != 2 || got[0] != b || got[1] != n-1 {
			t.Fatalf("Row with bits {%d, %d} set = %v", b, n-1, got)
		}
		if m.Count() != 2 {
			t.Fatalf("Count with bits {%d, %d} set = %d", b, n-1, m.Count())
		}
	}
}
