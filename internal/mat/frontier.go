package mat

import (
	"fmt"
	"math/bits"
)

// This file holds the receiver-wise form of the Eq. 3 knowledge recurrence —
// the one every verdict in the repo goes through, at every rank count.
//
// Propagate in bool.go walks knowledge row-wise: spreading row i of K costs
// one row union per set bit, so a closure over a saturating schedule is
// O(P³/64) words per stage. Working column-wise ("receiver-wise") turns the
// same recurrence into
//
//	know′[j] = know[j] ∪ ⋃_{m : S[m][j]} know[m]
//
// where know[j] — column j of K — is the set of arrivals rank j has heard
// about. Each stage then costs one row union per *signal*, O((P + signals)
// × P/64) words; because boolean OR is order-independent the result is
// bit-identical to the row-wise reference. Early in a closure the know sets
// are tiny, so they are held in HybridRow sparse form until they pass a fill
// threshold; late in a closure most rows are full, so full receivers are
// skipped entirely (knowledge is monotone — a full row stays full).

// hybridDenseThreshold returns the set-bit count past which a HybridRow
// switches from the sorted-index representation to a dense bitset. The
// sparse merge costs O(a+b) branchy element steps against the bitset's
// O(n/64) word steps, which cross over around n/16 entries.
func hybridDenseThreshold(n int) int {
	t := n / 16
	if t < 8 {
		t = 8
	}
	return t
}

// HybridRow is a set over columns 0..n-1 that starts as a sorted index list
// and densifies to a bitset once it passes hybridDenseThreshold. It is the
// row representation of the frontier closure kernels: dissemination-style
// schedules keep knowledge sets tiny for the first ~log P stages, where the
// sparse form makes a union proportional to the set sizes rather than to P.
// The zero value is not usable; construct with NewHybridRow.
type HybridRow struct {
	n    int
	ones int
	idx  []int32  // sorted, unique; meaningful while bits == nil
	bits []uint64 // dense form; nil while sparse
}

// NewHybridRow returns an empty set over columns 0..n-1.
func NewHybridRow(n int) *HybridRow {
	if n < 0 {
		panic(fmt.Sprintf("mat: NewHybridRow with negative size %d", n))
	}
	return &HybridRow{n: n}
}

// N returns the column universe size.
func (r *HybridRow) N() int { return r.n }

// Count returns the number of set columns.
func (r *HybridRow) Count() int { return r.ones }

// Full reports whether every column is set.
func (r *HybridRow) Full() bool { return r.ones == r.n }

// Clone returns a deep copy of r.
func (r *HybridRow) Clone() *HybridRow {
	c := &HybridRow{n: r.n, ones: r.ones}
	if r.bits != nil {
		c.bits = append([]uint64(nil), r.bits...)
	} else {
		c.idx = append([]int32(nil), r.idx...)
	}
	return c
}

// Contains reports whether column j is set.
func (r *HybridRow) Contains(j int) bool {
	if j < 0 || j >= r.n {
		panic(fmt.Sprintf("mat: HybridRow index %d out of range for %d columns", j, r.n))
	}
	if r.bits != nil {
		return r.bits[j/wordBits]&(1<<(uint(j)%wordBits)) != 0
	}
	lo, hi := 0, len(r.idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(r.idx[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.idx) && int(r.idx[lo]) == j
}

// Add sets column j and reports whether the row grew.
func (r *HybridRow) Add(j int) bool {
	if j < 0 || j >= r.n {
		panic(fmt.Sprintf("mat: HybridRow index %d out of range for %d columns", j, r.n))
	}
	if r.bits != nil {
		w := &r.bits[j/wordBits]
		bit := uint64(1) << (uint(j) % wordBits)
		if *w&bit != 0 {
			return false
		}
		*w |= bit
		r.ones++
		return true
	}
	lo, hi := 0, len(r.idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(r.idx[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.idx) && int(r.idx[lo]) == j {
		return false
	}
	r.idx = append(r.idx, 0)
	copy(r.idx[lo+1:], r.idx[lo:])
	r.idx[lo] = int32(j)
	r.ones++
	if r.ones > hybridDenseThreshold(r.n) {
		r.densify()
	}
	return true
}

// SubsetOf reports whether every column of r is set in o. It is the cheap
// "would this union even grow the receiver" test that lets the frontier
// closure keep sharing an unchanged row instead of cloning it.
func (r *HybridRow) SubsetOf(o *HybridRow) bool {
	if r.n != o.n {
		panic(fmt.Sprintf("mat: HybridRow SubsetOf dimension mismatch %d vs %d", r.n, o.n))
	}
	if r.ones > o.ones {
		return false
	}
	if o.Full() {
		return true
	}
	switch {
	case r.bits != nil && o.bits != nil:
		for w, v := range r.bits {
			if v&^o.bits[w] != 0 {
				return false
			}
		}
		return true
	case r.bits == nil && o.bits != nil:
		for _, j := range r.idx {
			if o.bits[int(j)/wordBits]&(1<<(uint(j)%wordBits)) == 0 {
				return false
			}
		}
		return true
	case r.bits != nil:
		// Dense r inside sparse o implies r.ones <= o.ones <= threshold;
		// fall back to the per-column test.
		for w, v := range r.bits {
			for v != 0 {
				b := bits.TrailingZeros64(v)
				v &^= 1 << uint(b)
				if !o.Contains(w*wordBits + b) {
					return false
				}
			}
		}
		return true
	default:
		i, j := 0, 0
		for i < len(r.idx) {
			for j < len(o.idx) && o.idx[j] < r.idx[i] {
				j++
			}
			if j >= len(o.idx) || o.idx[j] != r.idx[i] {
				return false
			}
			i++
		}
		return true
	}
}

// OrRow unions o into r and reports whether r grew.
func (r *HybridRow) OrRow(o *HybridRow) bool {
	if r.n != o.n {
		panic(fmt.Sprintf("mat: HybridRow OrRow dimension mismatch %d vs %d", r.n, o.n))
	}
	if o.ones == 0 || r.Full() {
		return false
	}
	if r.bits == nil && o.bits == nil {
		merged := make([]int32, 0, len(r.idx)+len(o.idx))
		i, j := 0, 0
		for i < len(r.idx) && j < len(o.idx) {
			switch {
			case r.idx[i] < o.idx[j]:
				merged = append(merged, r.idx[i])
				i++
			case r.idx[i] > o.idx[j]:
				merged = append(merged, o.idx[j])
				j++
			default:
				merged = append(merged, r.idx[i])
				i++
				j++
			}
		}
		merged = append(merged, r.idx[i:]...)
		merged = append(merged, o.idx[j:]...)
		grew := len(merged) > len(r.idx)
		r.idx, r.ones = merged, len(merged)
		if r.ones > hybridDenseThreshold(r.n) {
			r.densify()
		}
		return grew
	}
	r.densify()
	before := r.ones
	if o.bits != nil {
		ones := 0
		for w, v := range o.bits {
			r.bits[w] |= v
			ones += bits.OnesCount64(r.bits[w])
		}
		r.ones = ones
	} else {
		for _, j := range o.idx {
			w := &r.bits[int(j)/wordBits]
			bit := uint64(1) << (uint(j) % wordBits)
			if *w&bit == 0 {
				*w |= bit
				r.ones++
			}
		}
	}
	return r.ones > before
}

func (r *HybridRow) densify() {
	if r.bits != nil {
		return
	}
	r.bits = make([]uint64, (r.n+wordBits-1)/wordBits)
	for _, j := range r.idx {
		r.bits[int(j)/wordBits] |= 1 << (uint(j) % wordBits)
	}
	r.idx = nil
}

// FrontierClosure reports whether the stage sequence closes the Eq. 3
// recurrence — every rank ends up knowing every arrival — using the
// receiver-wise hybrid-row kernel. The verdict is bit-identical to running
// Propagate from Identity(p) and testing Count() == p*p (boolean OR is
// order-independent), but each stage costs one row union per signal instead
// of one per set knowledge bit, rows are shared copy-on-write with the
// previous stage when no signal grows them, and receivers that have
// saturated are never touched again. It returns early once every row is
// full: knowledge is monotone, so later stages cannot unclose a closure.
func FrontierClosure(p int, stages []*Bool) bool {
	if p <= 1 {
		return true
	}
	know := make([]*HybridRow, p)
	for j := range know {
		know[j] = NewHybridRow(p)
		know[j].Add(j)
	}
	fullCnt := 0
	next := make([]*HybridRow, p)
	owned := make([]bool, p)
	for _, s := range stages {
		if s.n != p {
			panic(fmt.Sprintf("mat: FrontierClosure stage is %d×%d, want %d", s.n, s.n, p))
		}
		copy(next, know)
		for j := range owned {
			owned[j] = false
		}
		for m := 0; m < p; m++ {
			src := know[m]
			base := m * s.words
			for w := 0; w < s.words; w++ {
				word := s.rows[base+w]
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << uint(b)
					j := w*wordBits + b
					if next[j].Full() {
						continue
					}
					if !owned[j] {
						if src.SubsetOf(next[j]) {
							continue
						}
						next[j] = next[j].Clone()
						owned[j] = true
					}
					if next[j].OrRow(src) && next[j].Full() {
						fullCnt++
					}
				}
			}
		}
		copy(know, next)
		if fullCnt == p {
			return true
		}
	}
	return fullCnt == p
}

// PropagateTSilencedInto computes the receiver-wise (transposed) form of the
// Eq. 3 step with the rows of silenced ranks treated as zero, mirroring
// PropagateSilencedInto in the transposed representation: a silenced rank
// receives knowledge but never forwards it. kt holds the knowledge matrix
// transposed — row j of kt is column j of K, the set of arrivals rank j
// knows — and dst receives the transpose of K + K·S: dst[j] = kt[j] | OR
// over unsilenced senders m with S[m][j] of kt[m]. The result is
// bit-identical to transposing PropagateSilencedInto's output, at a cost of
// one row union per signal instead of one per set knowledge bit. dst must
// not alias kt. silent is a bitset over ranks with at least (N+63)/64 words.
func PropagateTSilencedInto(dst, kt, s *Bool, silent []uint64) {
	if kt.n != s.n || dst.n != kt.n {
		panic(fmt.Sprintf("mat: PropagateTSilencedInto dimension mismatch %d/%d/%d", dst.n, kt.n, s.n))
	}
	if len(silent) < (kt.n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("mat: PropagateTSilencedInto silent mask has %d words for %d ranks", len(silent), kt.n))
	}
	copy(dst.rows, kt.rows)
	for m := 0; m < s.n; m++ {
		if silent[m/wordBits]&(1<<(uint(m)%wordBits)) != 0 {
			continue
		}
		src := kt.rows[m*kt.words : (m+1)*kt.words]
		base := m * s.words
		for w := 0; w < s.words; w++ {
			word := s.rows[base+w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				j := w*wordBits + b
				out := dst.rows[j*dst.words : (j+1)*dst.words]
				for x := range out {
					out[x] |= src[x]
				}
			}
		}
	}
}
