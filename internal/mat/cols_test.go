package mat

import (
	"reflect"
	"testing"
)

// assertColsMatchCol holds Cols to its contract: list j is exactly Col(j) —
// same rows, same order, nil (not empty) for an empty column — and appending
// to one list cannot reach its neighbour in the shared backing array.
func assertColsMatchCol(t *testing.T, m *Bool) {
	t.Helper()
	cols := m.Cols()
	if len(cols) != m.N() {
		t.Fatalf("Cols() has %d lists for n=%d", len(cols), m.N())
	}
	for j := range cols {
		if want := m.Col(j); !reflect.DeepEqual(cols[j], want) {
			t.Fatalf("n=%d: Cols()[%d] = %#v, Col(%d) = %#v", m.N(), j, cols[j], j, want)
		}
	}
	for j := range cols {
		cols[j] = append(cols[j], -1)
	}
	for j := range cols {
		if want := append(m.Col(j), -1); !reflect.DeepEqual(cols[j], want) {
			t.Fatalf("n=%d: appending to another column's list overwrote column %d: %v", m.N(), j, cols[j])
		}
	}
}

// boolFromBytes fills an n×n matrix row-major from the bits of data.
func boolFromBytes(n int, data []byte) *Bool {
	m := NewBool(n)
	for k := 0; k < n*n && k/8 < len(data); k++ {
		if data[k/8]&(1<<(k%8)) != 0 {
			m.Set(k/n, k%n, true)
		}
	}
	return m
}

func TestColsMatchesCol(t *testing.T) {
	// Sizes on both sides of the word boundaries: the last word of a row has
	// padding bits past column n-1 that must never surface as rows or columns.
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 130} {
		assertColsMatchCol(t, NewBool(n)) // every column empty
		for seed := uint64(1); seed <= 4; seed++ {
			assertColsMatchCol(t, randBool(n, seed*0x9e3779b97f4a7c15))
		}
		if n == 0 {
			continue
		}
		full := NewBool(n)
		lastCol := NewBool(n)
		for i := 0; i < n; i++ {
			lastCol.Set(i, n-1, true)
			for j := 0; j < n; j++ {
				full.Set(i, j, true)
			}
		}
		assertColsMatchCol(t, full)
		assertColsMatchCol(t, lastCol)
		assertColsMatchCol(t, Identity(n))
	}
}

func TestEachVisitsRowMajor(t *testing.T) {
	m := randBool(70, 7)
	var got [][2]int
	m.Each(func(i, j int) { got = append(got, [2]int{i, j}) })
	var want [][2]int
	for i := 0; i < m.N(); i++ {
		for _, j := range m.Row(i) {
			want = append(want, [2]int{i, j})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each visited %d entries out of row-major order (want %d)", len(got), len(want))
	}
}

func FuzzColsMatchesCol(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(5), []byte{})                           // all columns empty
	f.Add(uint8(3), []byte{0xff, 0xff})                 // full
	f.Add(uint8(65), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}) // only the bit in the second word: (0, 64)
	f.Add(uint8(64), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		assertColsMatchCol(t, boolFromBytes(int(n), data))
	})
}
