package mat

import (
	"fmt"
	"strings"
)

// Dense is a dense n×n float64 matrix in row-major order. It stores the
// pairwise cost parameters of the topological model (the O and L matrices of
// the paper) and intermediate per-stage cost weightings.
type Dense struct {
	n    int
	data []float64
}

// NewDense returns an n×n zero matrix.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewDense with negative size %d", n))
	}
	return &Dense{n: n, data: make([]float64, n*n)}
}

// DenseFromRows builds a matrix from a slice of row slices.
func DenseFromRows(rows [][]float64) *Dense {
	n := len(rows)
	m := NewDense(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("mat: DenseFromRows row %d has %d entries, want %d", i, len(r), n))
		}
		copy(m.data[i*n:(i+1)*n], r)
	}
	return m
}

// N returns the dimension of the matrix.
func (m *Dense) N() int { return m.n }

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.n, m.n))
	}
}

// At returns entry (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.n+j]
}

// Set assigns entry (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.n+j] = v
}

// Add adds v to entry (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.n+j] += v
}

// Data exposes the backing slice, rows concatenated in order: entry (i, j) is
// Data()[i*N()+j]. It exists for whole-matrix scans that cannot afford a
// bounds-checked accessor call per entry; writes through it mutate the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.n)
	copy(c.data, m.data)
	return c
}

// Sub returns the principal submatrix of m selected by idx: entry (a, b) of
// the result is m[idx[a]][idx[b]]. It is used to restrict a profile to the
// members of one cluster.
func (m *Dense) Sub(idx []int) *Dense {
	s := NewDense(len(idx))
	for a, i := range idx {
		for b, j := range idx {
			s.Set(a, b, m.At(i, j))
		}
	}
	return s
}

// MaxOffDiag returns the largest off-diagonal entry, i.e. the diameter of the
// profile viewed as a metric space. It returns 0 for matrices of size < 2.
func (m *Dense) MaxOffDiag() float64 {
	max := 0.0
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
func (m *Dense) MinOffDiag() float64 {
	first := true
	min := 0.0
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
func (m *Dense) String() string {
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
