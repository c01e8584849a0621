package mat

import (
	"fmt"
	"math/bits"
)

// This file holds Closure, the one non-incremental evaluator of the Eq. 3
// knowledge recurrence: Schedule.IsBarrier, the k-fault certifier (with a
// silence mask), the critical-edge sweep and the redundancy minimiser all run
// on it. The incremental sched.KnowledgeCache is the only other Eq. 3 engine;
// Propagate and PropagateSilencedInto in bool.go are the row-wise references
// both are tested against.
//
// Propagate walks knowledge row-wise: spreading row i of K costs one row
// union per set bit, so a closure over a saturating schedule is O(P³/64)
// words per stage. Working column-wise ("receiver-wise") turns the same
// recurrence into
//
//	know′[j] = know[j] ∪ ⋃_{m : S[m][j]} know[m]
//
// where know[j] — column j of K — is the set of arrivals rank j has heard
// about. Each stage then costs one row union per *signal*, O((P + signals)
// × P/64) words; because boolean OR is order-independent the result is
// bit-identical to the row-wise reference.

// Closure evaluates Eq. 3 from the identity over a stage sequence in the
// receiver-wise form. Every rank has two row slots: a row is copied only in a
// stage that signals its rank, and receivers that have closed are never
// touched again. The slots are reused across Run calls, so a caller that
// evaluates many variants of one schedule allocates once.
type Closure struct {
	p, words int
	// slots holds rank j's two rows at 2j·words and (2j+1)·words, then full.
	// at[j] locates the row j knew on entering the stage — what its own
	// signals forward; the other slot takes the stage's unions, and the two
	// swap at the end of a stage that signalled j.
	slots []uint64
	at    []int
	full  []uint64 // a required row has closed when it equals full
	done  []bool   // row closed, or not required to close
	grown []bool   // j's other slot holds this stage's unions
}

// NewClosure returns a closure over p ranks.
func NewClosure(p int) *Closure {
	words := (p + wordBits - 1) / wordBits
	slots := make([]uint64, (2*p+1)*words)
	flags := make([]bool, 2*p)
	return &Closure{
		p: p, words: words,
		slots: slots, at: make([]int, p), full: slots[2*p*words:],
		done: flags[:p], grown: flags[p:],
	}
}

// Run evaluates the stages with the ranks in silent — a rank bitset of at
// least (p+63)/64 words, or nil for none — neither forwarding knowledge nor
// having to learn any. It returns how many leading stages it took until every
// unsilenced rank knew of every unsilenced arrival (0 when nothing was left to
// learn), or -1 when the stages never get there. Knowledge is monotone, so
// Run stops at the closing stage; a closed row's know set is final.
func (c *Closure) Run(stages []*Bool, silent []uint64) int {
	p, words, slots, at, full, done, grown := c.p, c.words, c.slots, c.at, c.full, c.done, c.grown
	if silent != nil && len(silent) < words {
		panic(fmt.Sprintf("mat: Closure silent mask has %d words for %d ranks", len(silent), p))
	}
	clear(slots[:2*p*words])
	open := 0
	for j := range at {
		at[j] = 2 * j * words
		slots[at[j]+j/wordBits] = 1 << (uint(j) % wordBits)
		done[j] = silent != nil && silent[j/wordBits]&(1<<(uint(j)%wordBits)) != 0
		if !done[j] {
			open++
		}
	}
	if open <= 1 {
		return 0
	}
	// A silenced rank forwards nothing, so no other rank ever learns of it:
	// a required row has closed exactly when it holds every unsilenced rank.
	for w := range full {
		full[w] = ^uint64(0)
		if silent != nil {
			full[w] &^= silent[w]
		}
	}
	if r := uint(p % wordBits); r != 0 {
		full[words-1] &= 1<<r - 1
	}
	for a, s := range stages {
		if s.n != p {
			panic(fmt.Sprintf("mat: Closure stage is %d×%d, want %d", s.n, s.n, p))
		}
		for m, k := 0, 0; m < p; m, k = m+1, k+words {
			if silent != nil && silent[m/wordBits]&(1<<(uint(m)%wordBits)) != 0 {
				continue
			}
			src := slots[at[m] : at[m]+words]
			for w, word := range s.rows[k : k+words] {
				for ; word != 0; word &= word - 1 {
					j := w*wordBits + bits.TrailingZeros64(word)
					if done[j] {
						continue
					}
					other := (4*j+1)*words - at[j] // j's two offsets sum to (4j+1)·words
					dst := slots[other : other+words]
					if grown[j] {
						for x, v := range src {
							dst[x] |= v
						}
						continue
					}
					// The first signal this stage: the union starts from j's
					// own row, in the same pass (no separate copy).
					for x, v := range slots[at[j] : at[j]+words] {
						dst[x] = v | src[x]
					}
					grown[j] = true
				}
			}
		}
		for j, g := range grown {
			if !g {
				continue
			}
			grown[j] = false
			at[j] = (4*j+1)*words - at[j]
			closed := true
			for x, v := range slots[at[j] : at[j]+words] {
				if v != full[x] {
					closed = false
					break
				}
			}
			if closed {
				done[j] = true
				open--
			}
		}
		if open == 0 {
			return a + 1
		}
	}
	return -1
}

// Know returns rank j's know set after the last Run — bit i set means j has
// learned of i's arrival, entry (i, j) of K — for every rank Run required to
// learn. The slice aliases the closure's slots: the next Run overwrites it.
func (c *Closure) Know(j int) []uint64 { return c.slots[c.at[j] : c.at[j]+c.words] }
