package mat

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file holds Closure, the one evaluator of the Eq. 3 knowledge
// recurrence outside the references: Schedule.IsBarrier, the k-fault
// certifier (with a silence mask), the critical-edge sweep and the redundancy
// minimiser run it from scratch (Run), and the search's climber resumes it
// from the accepted schedule's first touched stage (Touch, Resume, Commit,
// Reject). Propagate and PropagateSilencedInto in bool.go are the row-wise
// references both paths are tested against.
//
// Propagate walks knowledge row-wise: spreading row i of K costs one row
// union per set bit, so a closure over a saturating schedule is O(P³/64)
// words per stage. Working column-wise ("receiver-wise") turns the same
// recurrence into
//
//	know′[j] = know[j] ∪ ⋃_{m : S[m][j]} know[m]
//
// where know[j] — column j of K — is the set of arrivals rank j has heard
// about. Each stage then costs one level copy plus one row union per
// *signal*, O((P + signals) × P/64) words; because boolean OR is
// order-independent the result is bit-identical to the row-wise reference.

// Closure evaluates Eq. 3 from the identity over a stage sequence in the
// receiver-wise form. A level is the know rows of every rank after some
// number of stages, P rows of (P+63)/64 words; level 0 is the identity.
//
// Run evaluates a sequence from scratch on two reused levels, so a caller
// that checks many variants of one schedule allocates once.
//
// The resume path serves a caller that edits one working schedule in place
// and asks for a verdict per edit. The closure keeps the levels of the
// accepted base schedule; Touch records the stages an edit changed, Resume
// catches the base up to the first touched stage and runs only the
// candidate's levels from there into a separate scratch area, Commit makes
// those levels the base, and Reject drops them — the base was never written,
// so nothing is restored.
type Closure struct {
	p, words int
	full     []uint64 // a required row has closed when it equals full
	run      []uint64 // Run's two levels
	last     []uint64 // the level Know reads

	// base[a] is the accepted schedule's level a, current for a ≤ valid;
	// cand[a] is the last Resume's level a, computed for lo < a ≤ ran.
	base, cand [][]uint64
	valid      int
	// lo and hi bound the stages touched since the last Commit or Reject (lo
	// > hi when none); ran is the last level the last Resume computed for
	// exactly these touches, or -1; rejoined says that Resume stopped on a
	// level equal to the base's.
	lo, hi   int
	ran      int
	rejoined bool
	// sound says the base is a barrier, which Commit's contract guarantees:
	// a candidate level equal to the base's after every touched stage then
	// decides the verdict.
	sound bool
}

// NewClosure returns a closure over p ranks.
func NewClosure(p int) *Closure {
	words := (p + wordBits - 1) / wordBits
	buf := make([]uint64, (2*p+1)*words)
	c := &Closure{p: p, words: words, run: buf[:2*p*words], full: buf[2*p*words:]}
	c.untouch()
	return c
}

// step advances level src by stage s into dst: every rank keeps what it knew
// and learns what each unsilenced rank signalling it knew. It is the one
// Eq. 3 stage step — Run and Resume both take it — and at one word per row
// its inner loop is a single OR per signal.
func (c *Closure) step(dst, src []uint64, s *Bool, silent []uint64) {
	if s.n != c.p {
		panic(fmt.Sprintf("mat: Closure stage is %d×%d, want %d", s.n, s.n, c.p))
	}
	copy(dst, src)
	if c.words == 1 {
		for m, row := range s.rows {
			if row == 0 || silent != nil && silent[0]&(1<<uint(m)) != 0 {
				continue
			}
			v := src[m]
			for ; row != 0; row &= row - 1 {
				dst[bits.TrailingZeros64(row)] |= v
			}
		}
		return
	}
	words := c.words
	for m, k := 0, 0; m < c.p; m, k = m+1, k+words {
		if silent != nil && silent[m/wordBits]&(1<<(uint(m)%wordBits)) != 0 {
			continue
		}
		from := src[k : k+words]
		for w, row := range s.rows[k : k+words] {
			for ; row != 0; row &= row - 1 {
				j := (w*wordBits + bits.TrailingZeros64(row)) * words
				to := dst[j : j+words]
				for x, v := range from {
					to[x] |= v
				}
			}
		}
	}
}

// open returns the first rank from j on that level requires to learn more —
// unsilenced, with a row short of full — or p when every required row has
// closed. Rows only grow, so a caller resumes the scan where the last one
// stopped.
func (c *Closure) open(level []uint64, j int, silent []uint64) int {
	for ; j < c.p; j++ {
		if silent != nil && silent[j/wordBits]&(1<<(uint(j)%wordBits)) != 0 {
			continue
		}
		if !slices.Equal(level[j*c.words:(j+1)*c.words], c.full) {
			return j
		}
	}
	return c.p
}

// setFull makes full the set of unsilenced ranks. A silenced rank forwards
// nothing, so no other rank ever learns of it: a required row has closed
// exactly when it holds every unsilenced rank.
func (c *Closure) setFull(silent []uint64) {
	for w := range c.full {
		c.full[w] = ^uint64(0)
		if silent != nil {
			c.full[w] &^= silent[w]
		}
	}
	if r := uint(c.p % wordBits); r != 0 {
		c.full[c.words-1] &= 1<<r - 1
	}
}

// identity writes level 0: every rank knows only of itself.
func (c *Closure) identity(level []uint64) {
	clear(level)
	for j := 0; j < c.p; j++ {
		level[j*c.words+j/wordBits] = 1 << (uint(j) % wordBits)
	}
}

// Run evaluates the stages with the ranks in silent — a rank bitset of at
// least (p+63)/64 words, or nil for none — neither forwarding knowledge nor
// having to learn any. It returns how many leading stages it took until every
// unsilenced rank knew of every unsilenced arrival (0 when nothing was left to
// learn), or -1 when the stages never get there. Knowledge is monotone, so
// Run stops at the closing stage; a closed row's know set is final. Run uses
// none of the resume path's state.
func (c *Closure) Run(stages []*Bool, silent []uint64) int {
	if silent != nil && len(silent) < c.words {
		panic(fmt.Sprintf("mat: Closure silent mask has %d words for %d ranks", len(silent), c.p))
	}
	c.setFull(silent)
	n := c.p * c.words
	src, dst := c.run[:n], c.run[n:]
	c.identity(src)
	c.last = src
	j := c.open(src, 0, silent)
	if j == c.p {
		return 0
	}
	for a, s := range stages {
		c.step(dst, src, s, silent)
		src, dst = dst, src
		c.last = src
		if j = c.open(src, j, silent); j == c.p {
			return a + 1
		}
	}
	return -1
}

// Know returns rank j's know set after the last Run — bit i set means j has
// learned of i's arrival, entry (i, j) of K — for every rank Run required to
// learn. The slice aliases the closure's levels: the next Run overwrites it.
func (c *Closure) Know(j int) []uint64 { return c.last[j*c.words : (j+1)*c.words] }

// Touch records that stage k of the working schedule no longer matches the
// base: a signal was set or cleared there, or the stage was appended or cut.
func (c *Closure) Touch(k int) {
	c.lo, c.hi, c.ran = min(c.lo, k), max(c.hi, k), -1
}

// untouch forgets the touched stages and the verdict computed for them.
func (c *Closure) untouch() { c.lo, c.hi, c.ran, c.rejoined = math.MaxInt, -1, -1, false }

// Resume reports whether stages — the base with the stages touched since the
// last Commit or Reject — synchronise. It catches the base's levels up to the
// first touched stage, then runs the candidate's levels from there. It stops
// early, exactly, at a full level (knowledge is monotone), or at a level
// equal to the base's once every touched stage has run: the rest is the
// base's, and a committed base is a barrier.
func (c *Closure) Resume(stages []*Bool) bool {
	n, size := len(stages), c.p*c.words
	if c.base == nil { // level 0 is shared: the candidate never writes it
		c.base, c.cand = [][]uint64{make([]uint64, size)}, [][]uint64{nil}
		c.identity(c.base[0])
	}
	for len(c.base) <= n {
		c.base, c.cand = append(c.base, make([]uint64, size)), append(c.cand, make([]uint64, size))
	}
	c.setFull(nil)
	c.lo, c.valid = min(c.lo, n), min(c.valid, n)
	for ; c.valid < c.lo; c.valid++ {
		c.step(c.base[c.valid+1], c.base[c.valid], stages[c.valid], nil)
	}
	c.ran, c.rejoined = c.lo, false
	prev := c.base[c.lo]
	j := c.open(prev, 0, nil)
	for a := c.lo + 1; j < c.p && a <= n; a++ {
		cur := c.cand[a]
		c.step(cur, prev, stages[a-1], nil)
		c.ran = a
		j = c.open(cur, j, nil)
		if j < c.p && a > c.hi && c.sound && a <= c.valid && slices.Equal(cur, c.base[a]) {
			c.rejoined = true
			return true
		}
		prev = cur
	}
	return j == c.p
}

// Commit makes the working schedule the new base. The caller must only
// commit a barrier — a candidate Resume accepted, or a superset of the base —
// because Resume's early exit on a level equal to the base's answers with the
// base's verdict. If Resume ran since the last touch, its levels become the
// base's; otherwise the base is stale from the first touched stage on.
func (c *Closure) Commit() {
	if c.ran >= 0 {
		for a := c.lo + 1; a <= c.ran; a++ {
			c.base[a], c.cand[a] = c.cand[a], c.base[a]
		}
		if !c.rejoined {
			c.valid = c.ran
		}
	} else {
		c.valid = min(c.valid, c.lo)
	}
	c.sound = true
	c.untouch()
}

// Reject forgets the touched stages: the working schedule is back to the
// base, whose levels Resume never writes.
func (c *Closure) Reject() { c.untouch() }
