package mat

import (
	"math/rand"
	"slices"
	"testing"
)

// randomPaths draws n paths of the given depth over small group ids, so that
// paths share prefixes and some repeat outright.
func randomPaths(rng *rand.Rand, n, depth int) []int {
	paths := make([]int, n*depth)
	for k := range paths {
		paths[k] = rng.Intn(1 + k%depth*2)
	}
	return paths
}

// pathCell is the tier cell of two paths compared entry by entry: twice the
// level they first differ at (depth when equal), plus one when a's path is
// the lexicographically later.
func pathCell(a, b []int) int {
	for lv := range a {
		if a[lv] != b[lv] {
			if a[lv] > b[lv] {
				return 2*lv + 1
			}
			return 2 * lv
		}
	}
	return 2 * len(a)
}

func TestTiersCellAndSpanMatchPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 200; trial++ {
		depth, n := 1+rng.Intn(4), 1+rng.Intn(40)
		paths := randomPaths(rng, n, depth)
		tr := NewTiers(depth, paths)
		path := func(r int) []int { return paths[r*depth : (r+1)*depth] }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && tr.Cell(i, j) != pathCell(path(i), path(j)) {
					t.Fatalf("paths %v: Cell(%d,%d) = %d, want %d", paths, i, j, tr.Cell(i, j), pathCell(path(i), path(j)))
				}
			}
		}
		ranks := rng.Perm(n)[:rng.Intn(n+1)]
		var want uint64
		for _, i := range ranks {
			for _, j := range ranks {
				if i != j {
					want |= 1 << pathCell(path(i), path(j))
				}
			}
		}
		if got := tr.Span(ranks); got != want {
			t.Fatalf("paths %v ranks %v: Span = %b, want %b", paths, ranks, got, want)
		}
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		if tr.Spans() != tr.Span(all) {
			t.Fatalf("paths %v: Spans = %b, Span of every rank %b", paths, tr.Spans(), tr.Span(all))
		}
	}
}

func TestNewTiersRejects(t *testing.T) {
	for name, build := range map[string]func(){
		"depth 0":           func() { NewTiers(0, nil) },
		"ragged paths":      func() { NewTiers(2, []int{0, 1, 2}) },
		"negative id":       func() { NewTiers(1, []int{0, -1}) },
		"over 64 bits":      func() { NewTiers(3, []int{1 << 30, 1 << 30, 1 << 10}) },
		"cells past a word": func() { NewTiers(maxDepth+1, make([]int, maxDepth+1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTiers did not panic", name)
				}
			}()
			build()
		}()
	}
}

// tieredRandom is a tier-derived matrix over random paths with distinct
// cell and diagonal values, and its every entry computed from the paths.
func tieredRandom(rng *rand.Rand, n, depth int) (*Costs, [][]float64) {
	paths := randomPaths(rng, n, depth)
	tr := NewTiers(depth, paths)
	cells, diag := make([]float64, tr.Cells()), make([]float64, n)
	for c := range cells {
		cells[c] = float64(10 + c)
	}
	for i := range diag {
		diag[i] = float64(100 + i)
	}
	want := make([][]float64, n)
	for i := range want {
		want[i] = make([]float64, n)
		for j := range want[i] {
			want[i][j] = diag[i]
			if i != j {
				want[i][j] = cells[pathCell(paths[i*depth:(i+1)*depth], paths[j*depth:(j+1)*depth])]
			}
		}
	}
	return NewTiered(tr, cells, diag), want
}

func sameEntries(t *testing.T, what string, m *Costs, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("%s: (%d,%d) = %v, want %v", what, i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

// TestTieredCostsForms drives a tier-derived matrix through writes, copies,
// submatrices (repeats and unsorted ranks included) and the off-diagonal
// extremes, against the same operations on its dense twin. A write on the
// diagonal of a derived row writes no row out.
func TestTieredCostsForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		m, want := tieredRandom(rng, n, 1+rng.Intn(4))
		dense := CostsFromRows(want)
		sameEntries(t, "derived", m, want)
		if m.MaxOffDiag() != dense.MaxOffDiag() || m.MinOffDiag() != dense.MinOffDiag() {
			t.Fatalf("extremes %v/%v, dense %v/%v", m.MinOffDiag(), m.MaxOffDiag(), dense.MinOffDiag(), dense.MaxOffDiag())
		}
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		c := Sub(all, m)[0] // a copy, as a profile's restriction to every rank
		i, j := rng.Intn(n), rng.Intn(n)
		c.Set(i, j, -1)
		sameEntries(t, "source of a written clone", m, want)
		want[i][j] = -1
		sameEntries(t, "written clone", c, want)
		for r := 0; r < n; r++ {
			if (c.Row(r) != nil) != (r == i && j != i) || m.Row(r) != nil {
				t.Fatalf("row %d: written out %v in the clone, %v in the source", r, c.Row(r) != nil, m.Row(r) != nil)
			}
		}
		dense.Set(i, j, -1)
		if c.MaxOffDiag() != dense.MaxOffDiag() || c.MinOffDiag() != dense.MinOffDiag() {
			t.Fatalf("written extremes %v/%v, dense %v/%v", c.MinOffDiag(), c.MaxOffDiag(), dense.MinOffDiag(), dense.MaxOffDiag())
		}
		for _, idx := range [][]int{rng.Perm(n)[:1+rng.Intn(n)], {0, 0, n - 1}, nil} {
			subs := Sub(idx, c, dense)
			sub := make([][]float64, len(idx))
			for a, ia := range idx {
				sub[a] = make([]float64, len(idx))
				for b, ib := range idx {
					sub[a][b] = want[ia][ib]
				}
			}
			sameEntries(t, "sub of the clone", subs[0], sub)
			sameEntries(t, "sub of the dense twin", subs[1], sub)
			if subs[0].MaxOffDiag() != subs[1].MaxOffDiag() || subs[0].MinOffDiag() != subs[1].MinOffDiag() {
				t.Fatalf("sub %v extremes differ", idx)
			}
			if repeats := len(slices.Compact(slices.Sorted(slices.Values(idx)))) < len(idx); repeats && subs[0].Tiers() != nil {
				t.Fatalf("sub %v with a repeated rank still derives rows", idx)
			}
		}
		buf := make([]float64, n)
		for r := 0; r < n; r++ {
			if !slices.Equal(c.CopyRow(buf, r), want[r]) {
				t.Fatalf("CopyRow(%d) = %v, want %v", r, buf, want[r])
			}
		}
	}
}

// TestSubSharesOneTierTable: submatrices of matrices derived from one tier
// table derive from one table too, which is what lets a profile's O and L
// rows be read cell by cell together.
func TestSubSharesOneTierTable(t *testing.T) {
	tr := NewTiers(2, []int{0, 0, 0, 1, 1, 0, 1, 1})
	a := NewTiered(tr, make([]float64, tr.Cells()), make([]float64, 4))
	b := NewTiered(tr, make([]float64, tr.Cells()), make([]float64, 4))
	subs := Sub([]int{1, 2, 3}, a, b)
	if subs[0].Tiers() == nil || subs[0].Tiers() != subs[1].Tiers() {
		t.Fatalf("subs derive from %p and %p", subs[0].Tiers(), subs[1].Tiers())
	}
}
