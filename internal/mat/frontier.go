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
// bit-identical to the row-wise reference.

// FrontierClosure reports whether the stage sequence closes the Eq. 3
// recurrence — every rank ends up knowing every arrival — using the
// receiver-wise kernel over plain bitset rows. The verdict is bit-identical
// to running Propagate from Identity(p) and testing Count() == p*p (boolean
// OR is order-independent), but each stage costs one row union per signal
// instead of one per set knowledge bit, a row is copied only in a stage
// that signals its rank, and receivers that have saturated are never touched
// again. It returns early once every row is full: knowledge is
// monotone, so later stages cannot unclose a closure.
func FrontierClosure(p int, stages []*Bool) bool {
	if p <= 1 {
		return true
	}
	words := (p + wordBits - 1) / wordBits
	// Every rank has two row slots. know[j] is what j knew on entering the
	// stage — what its own signals forward — and spare[j] takes the stage's
	// unions; the two swap at the end of a stage that signalled j.
	slots := make([]uint64, 2*p*words)
	know := make([][]uint64, p)
	spare := make([][]uint64, p)
	for j := range know {
		know[j] = slots[2*j*words : (2*j+1)*words]
		spare[j] = slots[(2*j+1)*words : (2*j+2)*words]
		know[j][j/wordBits] = 1 << (uint(j) % wordBits)
	}
	full := make([]bool, p)
	fullCnt := 0
	grown := make([]bool, p)
	for _, s := range stages {
		if s.n != p {
			panic(fmt.Sprintf("mat: FrontierClosure stage is %d×%d, want %d", s.n, s.n, p))
		}
		s.Each(func(m, j int) {
			if full[j] {
				return
			}
			dst := spare[j]
			if !grown[j] {
				copy(dst, know[j])
				grown[j] = true
			}
			for x, v := range know[m] {
				dst[x] |= v
			}
		})
		for j, g := range grown {
			if !g {
				continue
			}
			know[j], spare[j] = spare[j], know[j]
			grown[j] = false
			ones := 0
			for _, v := range know[j] {
				ones += bits.OnesCount64(v)
			}
			if ones == p {
				full[j] = true
				fullCnt++
			}
		}
		if fullCnt == p {
			return true
		}
	}
	return false
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
