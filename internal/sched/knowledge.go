package sched

import (
	"fmt"
	"math/bits"

	"topobarrier/internal/mat"
)

// KnowledgeCache is the prefix-reusable form of the Eq. 3 recurrence for
// evaluators that mutate one working schedule in place. A from-scratch
// Schedule.Knowledge costs O(stages·P³/64) and allocates per stage; the cache
// keeps the recurrence transposed — row j of stage k's table is column j of
// K(k), the set of arrivals rank j knows after stage k — so one stage step is
//
//	know′[j] = know[j] ∪ ⋃_{m : S[m][j]} know[m]
//
// one row union per signal, and re-runs it only over the rows and stages a
// mutation can have touched:
//
//   - Copy-on-write row sharing. A stage that does not change rank j's
//     knowledge aliases stage k-1's row for j instead of copying it, so a
//     schedule's whole knowledge history costs O(changed rows), not
//     O(stages·P²/64).
//   - Frontier waves. A mutation dirties a handful of receivers; the next
//     stage only needs to recompute those ranks and the receivers of their
//     signals, and the wave dies as soon as recomputed rows come out equal
//     to the cached ones. One pass serves every wave size: it reads only
//     the matrix words that hold a candidate receiver's column.
//   - Pointer journaling. Published rows are immutable (replaced, never
//     mutated), so the undo journal is a list of prior row pointers and
//     Rollback is O(changed rows) pointer restores.
//   - Exact single-bit change notes cancel in pairs, so an apply/undo cycle
//     (a candidate rejected without an Eq. 3 query) leaves no work.
//   - Knowledge is monotone: once some stage's table is all-set, every later
//     stage's is too, so verification stops at the saturation stage and
//     mutations strictly after it cannot change the verdict.
//
// Verdicts and matrices are bit-identical to Schedule.Knowledge — boolean OR
// is order-independent — which the property and fuzz tests in
// knowledge_test.go pin at every word-boundary rank count.
//
// The cache does not observe the schedule; callers own the contract of
// reporting every mutation before the next Barrier query — NoteSet/NoteClear
// for exact single-bit edits, Invalidate(k) for wholesale edits from stage k
// on — and of calling Rollback at most once, and before any further mutation
// notes, to undo the most recent Barrier. The zero value is not usable;
// construct with NewKnowledgeCache.
type KnowledgeCache struct {
	p, words int
	tailMask uint64
	// tables[k][j] = know set of rank j after stage k, current for
	// k < valid modulo pending notes. Rows may alias earlier stages' rows
	// and are immutable once the Barrier call that allocated them returns.
	tables  [][][]uint64
	fullCnt []int // per-stage count of saturated rows, trusted for k < valid
	valid   int
	sat     int // a stage whose knowledge is all-set, or -1
	ident   [][]uint64
	pending []pendingNote

	// Wave state: rank bitsets and row accumulators, all sized for p.
	dirty, nextDirty, cand []uint64
	computed               []uint64
	candWords              []int // indices of cand's non-zero words
	rowScratch             [][]uint64

	// Undo journal: prior row pointers plus the prior valid/sat/pending.
	jRefs        []journalRef
	jPending     []pendingNote
	jValid, jSat int

	// free recycles row slabs across candidates: Rollback returns the rows
	// it evicts (only the ones this cache allocated — never COW aliases of
	// an earlier stage's row), and newRow reuses them before touching the
	// allocator. In a rejection-heavy search loop this makes the steady
	// state allocation-free.
	free [][]uint64
}

// pendingNote kinds: exact set or exact clear of one signal.
const (
	noteSet = iota
	noteClear
)

type pendingNote struct{ kind, stage, i, j int }

type journalRef struct {
	stage, row int32
	// fresh marks rows allocated (or pooled) by the installing Barrier call;
	// only those may be recycled when Rollback evicts them. Aliased installs
	// share their array with another table slot and must be left to the GC.
	fresh bool
	old   []uint64
}

// freeRetainRows bounds the recycling pool; evictions past it go to the GC.
const freeRetainRows = 1 << 12

// journalRetainRefs caps the journal capacity kept across Barrier calls. A
// single pathological mutation (adopting a foreign schedule) can journal
// O(P·stages) rows; a long anneal performs millions of Barrier calls, and
// without a cap the journal would stay at its high-water capacity for the
// whole run. The cap is this floor or 16·P, whichever is larger: an ordinary
// rebuild journals a few stages of up to P rows each, and a cap below that
// frees and regrows the journal on every call.
const journalRetainRefs = 1 << 12

// newRow returns a row slab holding a copy of src, reusing a recycled slab
// when one is available.
func (c *KnowledgeCache) newRow(src []uint64) []uint64 {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		copy(r, src)
		return r
	}
	return append(make([]uint64, 0, c.words), src...)
}

// NewKnowledgeCache returns an empty cache for p-rank schedules.
func NewKnowledgeCache(p int) *KnowledgeCache {
	if p <= 0 {
		panic(fmt.Sprintf("sched: knowledge cache over %d ranks", p))
	}
	w := (p + 63) / 64
	tail := ^uint64(0)
	if r := uint(p % 64); r != 0 {
		tail = (uint64(1) << r) - 1
	}
	c := &KnowledgeCache{
		p: p, words: w, tailMask: tail, sat: -1, jSat: -1,
		dirty: make([]uint64, w), nextDirty: make([]uint64, w),
		cand: make([]uint64, w), computed: make([]uint64, w),
		rowScratch: make([][]uint64, p),
		ident:      make([][]uint64, p),
	}
	for j := 0; j < p; j++ {
		c.rowScratch[j] = make([]uint64, w)
		row := make([]uint64, w)
		row[j>>6] = 1 << uint(j&63)
		c.ident[j] = row
	}
	return c
}

// Invalidate marks stage k and every later stage wholly stale. Use it for
// edits beyond single signals (adoption of a foreign schedule, stage appends
// and truncations); Invalidate(0) forces a full recompute.
func (c *KnowledgeCache) Invalidate(stage int) {
	if stage < 0 {
		stage = 0
	}
	if stage < c.valid {
		c.valid = stage
	}
	if c.sat >= c.valid {
		c.sat = -1
	}
}

// NoteSet records that entry (i, j) of stage k's matrix changed from clear
// to set. A pending NoteClear of the same entry cancels against it: the bit
// is back where the cache last saw it, so neither needs replaying.
func (c *KnowledgeCache) NoteSet(stage, i, j int) { c.note(noteSet, noteClear, stage, i, j) }

// NoteClear records that entry (i, j) of stage k's matrix changed from set
// to clear, cancelling a pending NoteSet of the same entry.
func (c *KnowledgeCache) NoteClear(stage, i, j int) { c.note(noteClear, noteSet, stage, i, j) }

func (c *KnowledgeCache) note(kind, inverse, stage, i, j int) {
	if i < 0 || i >= c.p || j < 0 || j >= c.p || stage < 0 {
		panic(fmt.Sprintf("sched: change note (%d, %d, %d) out of range", stage, i, j))
	}
	if stage >= c.valid {
		return // the region is stale already and recomputed in full
	}
	for n, pr := range c.pending {
		if pr.kind == inverse && pr.stage == stage && pr.i == i && pr.j == j {
			c.pending = append(c.pending[:n], c.pending[n+1:]...)
			return
		}
	}
	c.pending = append(c.pending, pendingNote{kind, stage, i, j})
}

// Barrier reports whether s globally synchronises (Eq. 3), pushing a
// dirty-rank frontier wave through the cached transposed tables so the
// recurrence re-runs only over rows and stages the recorded changes can have
// affected. s must be over the cache's rank count.
func (c *KnowledgeCache) Barrier(s *Schedule) bool {
	if s.P != c.p {
		panic(fmt.Sprintf("sched: %d-rank schedule against %d-rank knowledge cache", s.P, c.p))
	}
	n := s.NumStages()
	if c.valid > n {
		// The schedule shrank (an undone append); the cached suffix is gone.
		c.valid = n
	}
	if c.sat >= c.valid {
		c.sat = -1
	}
	// Open a fresh undo journal for this call. The pending notes are
	// snapshotted too: this call consumes them, but a Rollback must re-arm
	// any that described changes the schedule keeps.
	c.resetJournal()
	c.jPending = append(c.jPending[:0], c.pending...)
	c.jValid, c.jSat = c.valid, c.sat
	if c.p == 1 {
		c.pending = c.pending[:0]
		return true
	}
	// Notes that fell into the stale region are subsumed by full recompute.
	pend := c.pending[:0]
	for _, pr := range c.pending {
		if pr.stage < c.valid {
			pend = append(pend, pr)
		}
	}
	c.pending = pend
	if len(c.pending) == 0 {
		if c.sat >= 0 {
			return true
		}
		if c.valid == n {
			return n > 0 && c.fullCnt[n-1] == c.p
		}
	}
	for len(c.tables) < n {
		c.tables = append(c.tables, make([][]uint64, c.p))
		c.fullCnt = append(c.fullCnt, 0)
	}

	start := c.valid
	for _, pr := range c.pending {
		if pr.stage < start {
			start = pr.stage
		}
	}
	clear(c.dirty)
	for k := start; k < n; k++ {
		st := s.Stages[k]
		if k >= c.valid {
			// Stale region: rebuild the stage wholesale. The restored valid
			// count already un-does these writes on Rollback; the journal
			// entries exist so rollback can recycle the installed rows.
			c.recomputeStage(k, st, false)
			c.valid = k + 1
			if c.fullCnt[k] == c.p {
				c.saturateAt(k)
				return true
			}
			continue
		}
		// Candidate receivers: every rank whose own knowledge moved at the
		// previous stage, every receiver of a signal such a rank sends at
		// this stage, and every receiver a pending note names here. No other
		// row of the stage can have moved.
		copy(c.cand, c.dirty)
		for w, word := range c.dirty {
			for word != 0 {
				m := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for x, v := range st.RowWords(m) {
					c.cand[x] |= v
				}
			}
		}
		for _, pr := range c.pending {
			if pr.stage == k {
				c.cand[pr.j>>6] |= 1 << uint(pr.j&63)
			}
		}
		changed := c.recomputeStage(k, st, true)
		c.dirty, c.nextDirty = c.nextDirty, c.dirty
		if changed {
			if k == c.sat && c.fullCnt[k] != c.p {
				// Saturation broken: the suffix must be rebuilt.
				c.sat = -1
			} else if c.sat < 0 && c.fullCnt[k] == c.p {
				c.saturateAt(k)
				return true
			}
		}
		if bitsetEmpty(c.dirty) && !pendingAfter(c.pending, k) {
			// The wave died. If the schedule has a stale suffix jump
			// straight to it; otherwise the verdict follows from what we
			// already know.
			if c.sat >= 0 || c.valid >= n {
				break
			}
			k = c.valid - 1
		}
	}
	c.pending = c.pending[:0]
	if c.sat >= 0 {
		return true
	}
	return n > 0 && c.valid == n && c.fullCnt[n-1] == c.p
}

// recomputeStage rebuilds the candidate receivers (c.cand) of stage k in one
// receiver-wise pass over the signals that reach them. In incremental mode
// (stage inside the valid prefix) rows whose value did not move keep their
// cached pointer, moved rows are journaled and flagged dirty for the next
// stage, and the return value reports whether any moved; in stale mode every
// rank is a candidate and rows are installed unconditionally — the slot's
// prior pointer is untrusted (it may dangle into the recycling pool), so it
// is never compared against or counted, only journaled so Rollback can
// recycle the replacement row.
func (c *KnowledgeCache) recomputeStage(k int, st *mat.Bool, incremental bool) bool {
	clear(c.computed)
	clear(c.nextDirty)
	if !incremental {
		for w := range c.cand {
			c.cand[w] = ^uint64(0)
		}
		c.cand[c.words-1] = c.tailMask
		c.fullCnt[k] = 0
	}
	// Only matrix words holding a candidate column are read: a single dirty
	// receiver at large P costs one word per sender row, not the whole stage.
	c.candWords = c.candWords[:0]
	for w, mask := range c.cand {
		if mask != 0 {
			c.candWords = append(c.candWords, w)
		}
	}
	words := c.words
	stW := st.Words()
	for m := 0; m < c.p; m++ {
		base := m * words
		var src []uint64
		for _, w := range c.candWords {
			word := stW[base+w] & c.cand[w]
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if src == nil {
					src = c.prevRow(k, m)
				}
				dst := c.rowScratch[j]
				if c.computed[w]&(1<<uint(j&63)) == 0 {
					copy(dst, c.prevRow(k, j))
					c.computed[w] |= 1 << uint(j&63)
				}
				for x, v := range src {
					dst[x] |= v
				}
			}
		}
	}
	changed := false
	tbl := c.tables[k]
	for _, w := range c.candWords {
		for word := c.cand[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			j := w*64 + b
			owned := c.computed[w]&(1<<uint(b)) != 0
			newRow := c.prevRow(k, j)
			if owned {
				newRow = c.rowScratch[j]
			}
			cur := tbl[j]
			if incremental && wordsEqual(cur, newRow) {
				continue
			}
			if owned {
				newRow = c.newRow(newRow)
			}
			c.jRefs = append(c.jRefs, journalRef{int32(k), int32(j), owned, cur})
			tbl[j] = newRow
			c.nextDirty[w] |= 1 << uint(b)
			changed = true
			wasFull, nowFull := incremental && c.isFullRow(cur), c.isFullRow(newRow)
			if nowFull && !wasFull {
				c.fullCnt[k]++
			} else if wasFull && !nowFull {
				c.fullCnt[k]--
			}
		}
	}
	return changed
}

// Rollback restores the cache to its exact state before the most recent
// Barrier call by restoring the journaled row pointers in reverse, including
// the pending notes that call consumed. The caller then reverts its own
// rejected edits and reports them as usual — those notes cancel against the
// restored pending, while notes describing changes the schedule keeps stay
// armed for the next Barrier. This is how the search engine retires an
// evaluated-but-rejected candidate in O(rows actually changed) pointer
// restores instead of pushing a second change wave through the recurrence.
func (c *KnowledgeCache) Rollback() {
	for i := len(c.jRefs) - 1; i >= 0; i-- {
		e := c.jRefs[i]
		tbl := c.tables[e.stage]
		cur := tbl[e.row]
		tbl[e.row] = e.old
		if e.fresh && len(c.free) < freeRetainRows {
			// cur is the row this journal entry installed (each (stage, row)
			// is journaled at most once per Barrier call), and fresh installs
			// are never aliased into another slot by the time the rollback
			// loop reaches their entry — safe to reuse.
			c.free = append(c.free, cur)
		}
		wasFull, nowFull := c.isFullRow(cur), c.isFullRow(e.old)
		if nowFull && !wasFull {
			c.fullCnt[e.stage]++
		} else if wasFull && !nowFull {
			c.fullCnt[e.stage]--
		}
	}
	c.resetJournal()
	c.valid, c.sat = c.jValid, c.jSat
	c.pending = append(c.pending[:0], c.jPending...)
}

// resetJournal empties the pointer journal, dropping the row references it
// held (they pin otherwise-dead rows) and releasing capacity past
// max(journalRetainRefs, 16·P) so memory tracks the typical mutation, not the
// worst one seen.
func (c *KnowledgeCache) resetJournal() {
	for i := range c.jRefs {
		c.jRefs[i].old = nil
	}
	if cap(c.jRefs) > max(journalRetainRefs, 16*c.p) {
		c.jRefs = nil
	} else {
		c.jRefs = c.jRefs[:0]
	}
}

// saturateAt records stage k as all-set and discards currency of everything
// after it; later stages are rebuilt in full if saturation is ever broken.
func (c *KnowledgeCache) saturateAt(k int) {
	c.sat = k
	c.valid = k + 1
	c.pending = c.pending[:0]
}

// prevRow returns the know set feeding stage k for rank j.
func (c *KnowledgeCache) prevRow(k, j int) []uint64 {
	if k == 0 {
		return c.ident[j]
	}
	return c.tables[k-1][j]
}

func (c *KnowledgeCache) isFullRow(row []uint64) bool {
	if len(row) < c.words {
		return false // unpopulated slot (nil row of a freshly grown stage)
	}
	last := c.words - 1
	for w := 0; w < last; w++ {
		if row[w] != ^uint64(0) {
			return false
		}
	}
	return row[last] == c.tailMask
}

func pendingAfter(pending []pendingNote, k int) bool {
	for _, pr := range pending {
		if pr.stage > k {
			return true
		}
	}
	return false
}

func bitsetEmpty(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

func wordsEqual(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}
