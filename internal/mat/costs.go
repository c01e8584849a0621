package mat

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Costs is an n×n float64 matrix of pairwise costs: the O and L matrices of
// the paper's profile. Each row is in one of two forms. A materialised row is
// a slice of n entries. A derived row is read off a tier table: entry (i, j)
// with i ≠ j is cells[t.Cell(i, j)], and entry (i, i) is diag[i]. A matrix
// built from a hierarchy (NewTiered) starts with every row derived and costs
// O(n · levels) to build; a write off the diagonal materialises the written
// row, filled from its derived values first, so writes change only the
// entries written, and a write on the diagonal of a derived row goes to
// diag. A matrix built empty (NewCosts) or from rows has every row
// materialised.
type Costs struct {
	n int
	// rows[i] is row i once it is materialised, nil while it is derived;
	// rows itself is nil until a row is, and dense counts them.
	rows  [][]float64
	dense int
	// tiers, cells and diag derive the rows not yet materialised; tiers is
	// nil in a matrix built empty or from rows.
	tiers *Tiers
	cells []float64
	diag  []float64
}

// NewCosts returns an n×n zero matrix, every row materialised.
func NewCosts(n int) *Costs {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewCosts with negative size %d", n))
	}
	return &Costs{n: n, rows: slab(n, n), dense: n}
}

// slab returns k rows of n zeros backed by one allocation.
func slab(k, n int) [][]float64 {
	data := make([]float64, k*n)
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = data[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// CostsFromRows builds a matrix from a slice of row slices, copying them.
func CostsFromRows(rows [][]float64) *Costs {
	n := len(rows)
	m := NewCosts(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("mat: CostsFromRows row %d has %d entries, want %d", i, len(r), n))
		}
		copy(m.rows[i], r)
	}
	return m
}

// NewTiered returns the matrix every row of which is derived from t: entry
// (i, j) with i ≠ j is cells[t.Cell(i, j)] and entry (i, i) is diag[i]. It
// keeps the slices: the caller changes neither afterwards, and the matrix
// owns diag, which Set writes the diagonal of a derived row to.
func NewTiered(t *Tiers, cells, diag []float64) *Costs {
	if len(cells) != t.Cells() || len(diag) != t.N() {
		panic(fmt.Sprintf("mat: NewTiered with %d cells and %d diagonal entries for %d tiers of %d ranks", len(cells), len(diag), t.depth, t.N()))
	}
	return &Costs{n: t.N(), tiers: t, cells: cells, diag: diag}
}

// N returns the dimension of the matrix.
func (m *Costs) N() int { return m.n }

func (m *Costs) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.n, m.n))
	}
}

// At returns entry (i, j).
func (m *Costs) At(i, j int) float64 {
	m.check(i, j)
	if row := m.Row(i); row != nil {
		return row[j]
	}
	return m.derived(i, j)
}

func (m *Costs) derived(i, j int) float64 {
	if i == j {
		return m.diag[i]
	}
	return m.cells[m.tiers.Cell(i, j)]
}

// Set assigns entry (i, j), materialising row i if it is derived and j ≠ i.
func (m *Costs) Set(i, j int, v float64) {
	m.check(i, j)
	if m.Row(i) == nil && i == j {
		m.diag[i] = v
		return
	}
	if m.Row(i) == nil {
		if m.rows == nil {
			m.rows = make([][]float64, m.n)
		}
		m.rows[i] = m.CopyRow(make([]float64, m.n), i)
		m.dense++
	}
	m.rows[i][j] = v
}

// Row returns row i when it is materialised, and nil while it is derived.
// Writes through the slice mutate the matrix.
func (m *Costs) Row(i int) []float64 {
	if m.dense == 0 {
		return nil
	}
	return m.rows[i]
}

// CopyRow copies row i, in either form, into dst[:N()] and returns that.
func (m *Costs) CopyRow(dst []float64, i int) []float64 {
	dst = dst[:m.n]
	if row := m.Row(i); row != nil {
		copy(dst, row)
		return dst
	}
	code, codes, level := m.tiers.codes[i], m.tiers.codes, &m.tiers.level
	for j, cj := range codes {
		dst[j] = m.cells[cell(level, code, cj)]
	}
	dst[i] = m.diag[i]
	return dst
}

// Tiers returns the tier table the derived rows are read off, or nil for a
// matrix built empty or from rows.
func (m *Costs) Tiers() *Tiers { return m.tiers }

// Cell returns the value of tier cell c, the entry of every derived pair
// t.Cell maps to c.
func (m *Costs) Cell(c int) float64 { return m.cells[c] }

// Derived reports whether none of the given rows is materialised, so that
// their entries are read off the tier table alone.
func (m *Costs) Derived(rows []int) bool {
	if m.tiers == nil {
		return false
	}
	if m.dense == 0 {
		return true
	}
	for _, i := range rows {
		if m.Row(i) != nil {
			return false
		}
	}
	return true
}

// Sub returns the principal submatrices of the given matrices selected by
// idx: entry (a, b) of each result is that matrix's entry (idx[a], idx[b]).
// It restricts a profile to the members of one cluster. A row of a result is
// materialised when its source row is; the rest derive from one tier table
// shared by every result whose source shares one, so the restriction of an
// unwritten hierarchy costs O(len(idx) · levels). idx may repeat a rank: the
// results then have every row materialised.
func Sub(idx []int, ms ...*Costs) []*Costs {
	distinct := true
	for a := 1; a < len(idx) && distinct; a++ {
		distinct = idx[a-1] < idx[a]
	}
	if !distinct && len(ms) > 0 { // not ascending: look for a repeat
		distinct = true
		seen := make([]bool, ms[0].n)
		for _, i := range idx {
			ms[0].check(i, i)
			distinct = distinct && !seen[i]
			seen[i] = true
		}
	}
	out := make([]*Costs, len(ms))
	for k, m := range ms {
		s := &Costs{n: len(idx)}
		if m.tiers != nil && distinct {
			for p, prev := range ms[:k] {
				if prev.tiers == m.tiers {
					s.tiers = out[p].tiers
				}
			}
			if s.tiers == nil {
				s.tiers = m.tiers.sub(idx)
			}
			s.cells, s.diag = m.cells, make([]float64, len(idx))
			for a, i := range idx {
				s.diag[a] = m.diag[i]
			}
		}
		for _, i := range idx {
			if m.Row(i) != nil || s.tiers == nil {
				s.dense++
			}
		}
		if s.dense == 0 {
			out[k] = s
			continue
		}
		s.rows = make([][]float64, len(idx))
		dense := slab(s.dense, len(idx))
		for a, i := range idx {
			if m.Row(i) == nil && s.tiers != nil {
				continue
			}
			r := dense[0]
			dense = dense[1:]
			for b, j := range idx {
				r[b] = m.At(i, j)
			}
			s.rows[a] = r
		}
		out[k] = s
	}
	return out
}

// MaxOffDiag returns the largest off-diagonal entry, i.e. the diameter of the
// profile viewed as a metric space. It returns 0 for matrices of size < 2.
func (m *Costs) MaxOffDiag() float64 {
	max := 0.0
	if m.tiers != nil && m.dense == 0 {
		spans := m.tiers.Spans()
		for c := range m.cells {
			if spans&(1<<c) != 0 && m.cells[c] > max {
				max = m.cells[c]
			}
		}
		return max
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i != j && m.At(i, j) > max {
				max = m.At(i, j)
			}
		}
	}
	return max
}

// MinOffDiag returns the smallest off-diagonal entry, or 0 for size < 2.
func (m *Costs) MinOffDiag() float64 {
	first := true
	min := 0.0
	if m.tiers != nil && m.dense == 0 {
		spans := m.tiers.Spans()
		for c := range m.cells {
			if spans&(1<<c) != 0 && (first || m.cells[c] < min) {
				min, first = m.cells[c], false
			}
		}
		return min
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if i == j {
				continue
			}
			if first || m.At(i, j) < min {
				min = m.At(i, j)
				first = false
			}
		}
	}
	return min
}

// String renders the matrix with %.3g entries; intended for small dumps.
func (m *Costs) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.3g", m.At(i, j))
		}
		if i+1 < m.n {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Tiers places n ranks in a hierarchy: each rank has a path of group ids,
// outermost level first (for a cluster: node, socket, cache slice, core).
// Two ranks' tier is the level at which their paths first differ, or the
// depth when the paths are equal; a pair's direction is 1 when the first
// rank's path is lexicographically after the second's, else 0. Cell(i, j) =
// 2·tier + direction indexes the tier table of a derived Costs.
type Tiers struct {
	depth int
	// codes[r] is rank r's path packed outermost level first from the top
	// bit down, each level in the width of its largest id, so comparing two
	// codes compares the paths lexicographically and the leading zeros of
	// their XOR say where they first differ.
	codes []uint64
	// level[z] is the tier of two codes whose XOR has z leading zeros.
	level [65]uint8
}

// maxDepth keeps the 2·(depth+1) cells within one uint64 of span bits.
const maxDepth = 31

// NewTiers builds the tier table of len(paths)/depth ranks: rank r's path is
// paths[r*depth : (r+1)*depth]. Group ids must be non-negative and the
// packed paths must fit 64 bits.
func NewTiers(depth int, paths []int) *Tiers {
	if depth < 1 || depth > maxDepth || len(paths)%depth != 0 {
		panic(fmt.Sprintf("mat: NewTiers with %d path entries of depth %d", len(paths), depth))
	}
	width := make([]int, depth)
	for k, g := range paths {
		if g < 0 {
			panic(fmt.Sprintf("mat: NewTiers with negative group id %d", g))
		}
		width[k%depth] = max(width[k%depth], bits.Len(uint(g)))
	}
	t := &Tiers{depth: depth, codes: make([]uint64, len(paths)/depth)}
	shift, z := 64, 0
	for lv, w := range width {
		if shift -= w; shift < 0 {
			panic(fmt.Sprintf("mat: NewTiers paths need more than 64 bits (widths %v)", width))
		}
		for ; z < 64-shift; z++ {
			t.level[z] = uint8(lv)
		}
	}
	for ; z <= 64; z++ {
		t.level[z] = uint8(depth)
	}
	for r := range t.codes {
		var code uint64
		s := 64
		for lv, g := range paths[r*depth : (r+1)*depth] {
			s -= width[lv]
			code |= uint64(g) << s
		}
		t.codes[r] = code
	}
	return t
}

// N returns the number of ranks.
func (t *Tiers) N() int { return len(t.codes) }

// Cells returns the size of a tier table over t: two directions per tier,
// the depth (equal paths) included.
func (t *Tiers) Cells() int { return 2 * (t.depth + 1) }

// Cell returns the tier cell of the pair (i, j), i ≠ j.
func (t *Tiers) Cell(i, j int) int { return cell(&t.level, t.codes[i], t.codes[j]) }

func cell(level *[65]uint8, a, b uint64) int {
	c := 2 * int(level[bits.LeadingZeros64(a^b)])
	if a > b {
		c++
	}
	return c
}

// Spans returns the set of cells, bit c for cell c, that some pair of
// distinct ranks falls in, in O(n log n).
func (t *Tiers) Spans() uint64 { return t.span(slices.Clone(t.codes)) }

// Span returns the set of cells some pair of the given distinct ranks falls
// in, in O(k log k) for k ranks.
func (t *Tiers) Span(ranks []int) uint64 {
	codes := make([]uint64, len(ranks))
	for k, r := range ranks {
		codes[k] = t.codes[r]
	}
	return t.span(codes)
}

// span sorts codes in place and returns the cells their pairs fall in. In
// sorted order the pairs of adjacent codes already cover every tier some
// pair reaches: between two codes that first differ at tier l, every code
// shares their prefix above l and one adjacent step must change level l.
// Both directions of a tier occur, but equal codes only compare one way.
func (t *Tiers) span(codes []uint64) uint64 {
	slices.Sort(codes)
	var s uint64
	for k := 1; k < len(codes); k++ {
		c := cell(&t.level, codes[k-1], codes[k])
		s |= 1 << c
		if codes[k-1] != codes[k] {
			s |= 1 << (c + 1)
		}
	}
	return s
}

// sub returns the tier table of the ranks idx, rank a of the result being
// idx[a] of t.
func (t *Tiers) sub(idx []int) *Tiers {
	s := &Tiers{depth: t.depth, codes: make([]uint64, len(idx)), level: t.level}
	for a, i := range idx {
		s.codes[a] = t.codes[i]
	}
	return s
}
