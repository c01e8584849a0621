package predict

import (
	"fmt"
	"math/bits"

	"topobarrier/internal/sched"
)

// Evaluator is the incremental form of Predictor.Cost for search loops that
// mutate one working schedule in place. The expensive inputs of the critical
// path — the per-(rank, stage) send-batch durations of Eqs. 1/2 — are cached
// and recomputed only for rows the caller marks dirty; the forward
// critical-path pass itself then runs allocation-free over bitset words. The
// float operations replicate Predictor.Cost in the exact same order, so for
// any synchronised state the two agree bit for bit — the determinism contract
// the parallel portfolio search depends on.
//
// A dirty mark is a hint, not a sentence: at the next Cost the evaluator
// compares the row's bits against a snapshot taken when the row was last
// priced, and a row whose bits are back to the snapshot — the apply/undo
// cycle of a rejected candidate — costs nothing and does not invalidate the
// completion-time prefix.
//
// Contract: after mutating row i of stage k, call Touch(k, i) before the next
// Cost; after removing trailing stages, call Truncate with the new stage
// count. Newly appended stages need no Touch — Cost recomputes any stage
// beyond the last synchronised count in full.
type Evaluator struct {
	pd     *Predictor
	p      int
	active int         // stages with current cached durations
	dur    [][]float64 // dur[k][i]: rank i's batch duration in stage k
	dirty  []rowRef
	// rowBits[k] snapshots stage k's matrix (p rows × words) as of the last
	// Cost that priced its rows; the dirty loop compares against it to detect
	// rows that only moved and moved back.
	rowBits [][]uint64
	// times[k][i] caches rank i's completion time after stage k; the first
	// timesValid stages are current. Only a row whose bits actually changed
	// invalidates the pass, and only from its stage forward.
	times      [][]float64
	timesValid int
	zero       []float64
	// edges[k] lists stage k's signals, kept in lockstep with the priced
	// snapshots. The completion-time pass walks this flat list instead of the
	// stage's bitset rows: a rank that sends nothing contributes no arrival
	// terms and max is order-independent, so the pass computes the exact same
	// values — in one counted loop of branch-free max updates, where nested
	// bit-scans mispredicted at every row end and at every comparison. (The
	// builtin max parts from Predictor.Cost's `if a > b` only on NaN, which
	// no cost of a usable profile is.)
	edges [][]edge
	// arrive[i] is rank i's own completion of the stage being priced, the
	// time its signals arrive; next[i] starts there and only rises.
	arrive []float64
}

type edge struct{ from, to int32 }

type rowRef struct{ stage, rank int }

// NewEvaluator returns an evaluator bound to the predictor's profile.
func NewEvaluator(pd *Predictor) *Evaluator {
	p := pd.Prof.P
	return &Evaluator{pd: pd, p: p, zero: make([]float64, p), arrive: make([]float64, p)}
}

// Touch marks the batch duration of rank in stage stale.
func (e *Evaluator) Touch(stage, rank int) {
	if rank < 0 || rank >= e.p || stage < 0 {
		panic(fmt.Sprintf("predict: Touch(%d, %d) out of range", stage, rank))
	}
	if stage < e.active {
		e.dirty = append(e.dirty, rowRef{stage, rank})
	}
}

// Truncate drops cached durations for stages ≥ n. Callers must invoke it when
// trailing stages are removed; stages re-appended afterwards are recomputed
// in full on the next Cost.
func (e *Evaluator) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n < e.active {
		e.active = n
	}
	if n < e.timesValid {
		e.timesValid = n
	}
}

// Cost returns the critical-path prediction for the working schedule,
// recomputing only rows whose bits moved, newly appeared stages, and the
// completion-time suffix from the first stage that actually changed.
func (e *Evaluator) Cost(s *sched.Schedule) float64 {
	e.pd.check(s)
	n := s.NumStages()
	if e.active > n {
		// Defensive: a truncation the caller forgot to report. Re-syncing here
		// keeps the cache sound for the shrink itself, though a same-length
		// truncate-then-append between Cost calls still requires Truncate.
		e.active = n
	}
	if e.timesValid > n {
		e.timesValid = n
	}
	words := 1
	if n > 0 {
		words = s.Stages[0].WordsPerRow()
	}
	for e.active < n {
		k := e.active
		if len(e.dur) <= k {
			e.dur = append(e.dur, make([]float64, e.p))
			e.rowBits = append(e.rowBits, make([]uint64, e.p*words))
			e.edges = append(e.edges, nil)
		}
		es := e.edges[k][:0]
		ready := e.pd.stageReady(k)
		for i := 0; i < e.p; i++ {
			e.dur[k][i] = e.pd.rowCost(s.Stages[k], i, ready)
			row := s.Stages[k].RowWords(i)
			copy(e.rowBits[k][i*words:(i+1)*words], row)
			es = appendEdges(es, i, row)
		}
		e.edges[k] = es
		if e.timesValid > k {
			e.timesValid = k
		}
		e.active++
	}
	for _, r := range e.dirty {
		if r.stage >= n {
			continue
		}
		row := s.Stages[r.stage].Words()[r.rank*words : (r.rank+1)*words]
		snap := e.rowBits[r.stage][r.rank*words : (r.rank+1)*words]
		same := true
		for w := range row {
			if row[w] != snap[w] {
				same = false
				break
			}
		}
		if same {
			// The row is back to its last priced state; the cached duration
			// and any completion times built on it still hold.
			continue
		}
		copy(snap, row)
		e.dur[r.stage][r.rank] = e.pd.rowCost(s.Stages[r.stage], r.rank, e.pd.stageReady(r.stage))
		kept := e.edges[r.stage][:0]
		for _, sg := range e.edges[r.stage] {
			if int(sg.from) != r.rank {
				kept = append(kept, sg)
			}
		}
		e.edges[r.stage] = appendEdges(kept, r.rank, row)
		if r.stage < e.timesValid {
			e.timesValid = r.stage
		}
	}
	e.dirty = e.dirty[:0]

	for len(e.times) < n {
		e.times = append(e.times, make([]float64, e.p))
	}
	for k := e.timesValid; k < n; k++ {
		t := e.zero
		if k > 0 {
			t = e.times[k-1]
		}
		next := e.times[k]
		dur := e.dur[k][:len(next)]
		arrive := e.arrive[:len(next)]
		t = t[:len(next)]
		for i := range next {
			a := t[i] + dur[i]
			arrive[i], next[i] = a, a
		}
		for _, sg := range e.edges[k] {
			next[sg.to] = max(next[sg.to], arrive[sg.from])
		}
	}
	e.timesValid = n
	max := 0.0
	if n > 0 {
		for _, v := range e.times[n-1] {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// appendEdges appends one edge per set bit of rank from's row.
func appendEdges(es []edge, from int, row []uint64) []edge {
	for w, word := range row {
		for word != 0 {
			j := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			es = append(es, edge{int32(from), int32(j)})
		}
	}
	return es
}
