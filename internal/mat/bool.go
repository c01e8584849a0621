// Package mat provides the small matrix kernels used by the barrier models:
// boolean incidence matrices over the (OR, AND) semiring, which encode
// per-stage signal patterns, and float64 cost matrices, which hold pairwise
// cost profiles row by row or, for a platform known by its hierarchy, as a
// tier table a row is read off until it is written.
//
// Boolean matrices are stored as bitset rows so that the knowledge recurrence
// of the paper (Eq. 3: Ka = Ka-1 + Ka-1·Sa) runs in O(P²·P/64) per stage.
package mat

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Bool is a dense P×P boolean matrix stored as one bitset per row.
// Bool{} is not usable; construct with NewBool or Identity.
type Bool struct {
	n     int
	words int      // words per row
	rows  []uint64 // n * words
}

// NewBool returns an n×n all-false boolean matrix.
func NewBool(n int) *Bool {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewBool with negative size %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	return &Bool{n: n, words: w, rows: make([]uint64, n*w)}
}

// Identity returns the n×n identity matrix over the boolean semiring.
func Identity(n int) *Bool {
	m := NewBool(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// BoolFromRows builds a matrix from a slice of row slices. All rows must have
// length len(rows). It is intended for tests and literals.
func BoolFromRows(rows [][]bool) *Bool {
	n := len(rows)
	m := NewBool(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("mat: BoolFromRows row %d has %d entries, want %d", i, len(r), n))
		}
		for j, v := range r {
			if v {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// N returns the dimension of the matrix.
func (m *Bool) N() int { return m.n }

func (m *Bool) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.n, m.n))
	}
}

// At reports whether entry (i, j) is set.
func (m *Bool) At(i, j int) bool {
	m.check(i, j)
	return m.rows[i*m.words+j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// Set assigns entry (i, j).
func (m *Bool) Set(i, j int, v bool) {
	m.check(i, j)
	w := &m.rows[i*m.words+j/wordBits]
	bit := uint64(1) << (uint(j) % wordBits)
	if v {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// Row returns the column indices set in row i, in increasing order.
func (m *Bool) Row(i int) []int {
	m.check(i, 0)
	var out []int
	base := i * m.words
	for w := 0; w < m.words; w++ {
		word := m.rows[base+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*wordBits+b)
			word &^= 1 << uint(b)
		}
	}
	return out
}

// Col returns the row indices i for which entry (i, j) is set, increasing.
func (m *Bool) Col(j int) []int {
	m.check(0, j)
	var out []int
	for i := 0; i < m.n; i++ {
		if m.At(i, j) {
			out = append(out, i)
		}
	}
	return out
}

// Cols returns every column's row list at once: out[j] is exactly what Col(j)
// returns — the rows i with entry (i, j) set, increasing, nil for an empty
// column — but all n lists come from two passes over the set bits (count,
// then fill) instead of n² At probes, so compiling a stage's receive lists
// costs O(n·words + signals). The lists are carved from one backing array
// with their capacity clipped, so appending to one never reaches the next.
func (m *Bool) Cols() [][]int {
	out := make([][]int, m.n)
	counts := make([]int, m.n)
	m.Each(func(_, j int) { counts[j]++ })
	backing := make([]int, m.Count())
	off := 0
	for j, c := range counts {
		if c > 0 {
			out[j] = backing[off : off : off+c]
			off += c
		}
	}
	m.Each(func(i, j int) { out[j] = append(out[j], i) })
	return out
}

// Each calls f(i, j) for every set entry in row-major order — rows
// increasing, columns increasing within a row — without allocating.
func (m *Bool) Each(f func(i, j int)) {
	for i, k := 0, 0; i < m.n; i++ {
		for w := 0; w < m.words; w, k = w+1, k+1 {
			for word := m.rows[k]; word != 0; word &= word - 1 {
				f(i, w*wordBits+bits.TrailingZeros64(word))
			}
		}
	}
}

// RowWords returns the bitset words backing row i. The slice aliases the
// matrix storage: writes through it mutate the matrix, and it is invalidated
// by nothing (the backing array never reallocates). It exists so word-at-a-
// time kernels — stage pricing, the search's signal draw — can avoid the
// per-bit At/Set accessors and the allocation in Row.
func (m *Bool) RowWords(i int) []uint64 {
	return m.rows[i*m.words : (i+1)*m.words]
}

// Clone returns a deep copy of m, written once: the copy is never zeroed
// first.
func (m *Bool) Clone() *Bool {
	return &Bool{n: m.n, words: m.words, rows: slices.Clone(m.rows)}
}

// Equal reports whether m and o have the same dimension and entries. Identical
// matrices and equal-by-words matrices short-circuit without a bit-level scan.
func (m *Bool) Equal(o *Bool) bool {
	if m == o {
		return true
	}
	if m.n != o.n {
		return false
	}
	for k := range m.rows {
		if m.rows[k] != o.rows[k] {
			return false
		}
	}
	return true
}

// IsZero reports whether the matrix has no set entries.
func (m *Bool) IsZero() bool {
	for _, w := range m.rows {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set entries.
func (m *Bool) Count() int {
	c := 0
	for _, w := range m.rows {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets m |= o element-wise and returns m.
func (m *Bool) Or(o *Bool) *Bool {
	if m.n != o.n {
		panic(fmt.Sprintf("mat: Or dimension mismatch %d vs %d", m.n, o.n))
	}
	for k := range m.rows {
		m.rows[k] |= o.rows[k]
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Bool) T() *Bool {
	t := NewBool(m.n)
	m.Each(func(i, j int) { t.Set(j, i, true) })
	return t
}

// Propagate computes one step of the paper's knowledge recurrence
// (Eq. 3): it returns K + K·S, where + and · are boolean semiring operations.
// K[i][j] means "rank j knows that rank i has arrived"; multiplying by the
// stage matrix S spreads each rank's knowledge along the signals it sends.
func Propagate(k, s *Bool) *Bool {
	if k.n != s.n {
		panic(fmt.Sprintf("mat: Propagate dimension mismatch %d vs %d", k.n, s.n))
	}
	// (K + K·S)[i] = K[i] | OR_{m: K[i][m]} S[m].
	r := k.Clone()
	for i := 0; i < k.n; i++ {
		dst := r.rows[i*r.words : (i+1)*r.words]
		for _, m := range k.Row(i) {
			src := s.rows[m*s.words : (m+1)*s.words]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	}
	return r
}

// PropagateSilencedInto computes dst = K + K·S′, where S′ is S with the rows
// of silenced ranks treated as zero: a silenced rank receives knowledge but
// never forwards it. silent is a bitset over ranks with at least (N+63)/64
// words. dst must not alias k or s. It is the row-wise reference for
// Closure.Run with a silence mask, which the k-fault resilience certifier
// runs; only tests call it.
func PropagateSilencedInto(dst, k, s *Bool, silent []uint64) {
	if k.n != s.n || dst.n != k.n {
		panic(fmt.Sprintf("mat: PropagateSilencedInto dimension mismatch %d/%d/%d", dst.n, k.n, s.n))
	}
	if len(silent) < (k.n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("mat: PropagateSilencedInto silent mask has %d words for %d ranks", len(silent), k.n))
	}
	copy(dst.rows, k.rows)
	for i := 0; i < k.n; i++ {
		base := i * k.words
		out := dst.rows[base : base+dst.words]
		for w := 0; w < k.words; w++ {
			word := k.rows[base+w] &^ silent[w] // silenced relays spread nothing
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				mrow := (w*wordBits + b) * s.words
				src := s.rows[mrow : mrow+s.words]
				for x := range out {
					out[x] |= src[x]
				}
			}
		}
	}
}

// ReachableFrom computes the set of columns reachable from the seed bitset by
// repeatedly following set rows of m (transitive closure of one frontier over
// the union signal graph), writing the result over seed. Rows of silenced
// ranks are not followed, mirroring PropagateSilencedInto. It is the static
// reachability primitive the resilience certifier's candidate pruning uses to
// find articulation ranks; silent may be nil for an unrestricted walk.
func (m *Bool) ReachableFrom(seed, silent []uint64) {
	if len(seed) != m.words {
		panic(fmt.Sprintf("mat: ReachableFrom seed has %d words, want %d", len(seed), m.words))
	}
	frontier := make([]uint64, m.words)
	next := make([]uint64, m.words)
	copy(frontier, seed)
	for {
		grew := false
		for w := range next {
			next[w] = 0
		}
		for w := 0; w < m.words; w++ {
			word := frontier[w]
			if silent != nil {
				word &^= silent[w]
			}
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				row := m.rows[(w*wordBits+b)*m.words : (w*wordBits+b+1)*m.words]
				for x := range next {
					next[x] |= row[x] &^ seed[x]
				}
			}
		}
		for w := range next {
			if next[w] != 0 {
				grew = true
				seed[w] |= next[w]
			}
		}
		if !grew {
			return
		}
		frontier, next = next, frontier
	}
}

// String renders the matrix as rows of 0/1 characters, suitable for tests and
// small stage dumps (as in the paper's Figures 2-4).
func (m *Bool) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if m.At(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
			if j+1 < m.n {
				b.WriteByte(' ')
			}
		}
		if i+1 < m.n {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
