package predict

import (
	"fmt"
	"math"

	"topobarrier/internal/sched"
)

// Evaluator is the incremental form of Predictor.Cost for a search loop that
// edits one working schedule in place, with mat.Closure's edit protocol. It
// keeps step's inputs for the working schedule — every rank's drain and each
// stage's flat signal list — and the completion-time levels of the accepted
// base schedule: level a is every rank's completion after a stages, level 0
// is time zero.
//
// Touch reprices an edited row at once and saves what it replaced; Cost
// catches the base's levels up to the first touched stage and runs step from
// there into scratch levels; Commit makes the working schedule the base —
// swapping the scratch levels in if Cost ran since the last touch, marking
// the base's levels stale from the first touched stage otherwise — and
// Reject restores the saved rows. Every value is step's, in step's order, so
// for any state the protocol allows Cost equals Predictor.Cost bit for bit —
// the determinism contract the parallel portfolio search depends on.
type Evaluator struct {
	pd *Predictor
	p  int
	// n stages of the working schedule are priced: drain[k][i] is rank i's
	// drain in stage k and edges[k] the stage's signals.
	n     int
	drain [][]float64
	edges [][]edge
	// base[a] is the base's level a, current for a ≤ valid; cand[a] is the
	// last Cost's level a, computed for lo < a ≤ ran.
	base, cand [][]float64
	valid      int
	arrive     []float64
	// lo is the first stage touched since the last Commit or Reject
	// (MaxInt when none); ran is the last level Cost computed for exactly
	// these touches, or -1.
	lo, ran int
	// saved undoes the touches, newest last; free recycles signal lists.
	saved []saved
	free  [][]edge
}

// saved is what one Touch replaced: rank's drain and the signal list of stage,
// or — with rank < 0 — the priced stage count before stage was appended.
type saved struct {
	stage, rank int
	drain       float64
	edges       []edge
}

// NewEvaluator returns an evaluator bound to the predictor's profile.
func NewEvaluator(pd *Predictor) *Evaluator {
	p := pd.Prof.P
	e := &Evaluator{pd: pd, p: p, base: [][]float64{make([]float64, p)}, cand: [][]float64{nil}, arrive: make([]float64, p)}
	e.untouch()
	return e
}

func (e *Evaluator) untouch() { e.lo, e.ran, e.saved = math.MaxInt, -1, e.saved[:0] }

// price fills step's inputs for stage k of s in full.
func (e *Evaluator) price(s *sched.Schedule, k int) {
	if len(e.drain) == k {
		e.drain, e.edges = append(e.drain, make([]float64, e.p)), append(e.edges, nil)
	}
	e.edges[k] = e.pd.stageInputs(s.Stages[k], k, e.drain[k], e.edges[k])
}

// Touch records that row rank of stage changed in s, the working schedule,
// and reprices it. A stage beyond those priced — an appended one — is priced
// in full, along with any unpriced stage before it.
func (e *Evaluator) Touch(s *sched.Schedule, stage, rank int) {
	if rank < 0 || rank >= e.p || stage < 0 || stage >= s.NumStages() {
		panic(fmt.Sprintf("predict: Touch(%d, %d) out of range", stage, rank))
	}
	e.lo, e.ran = min(e.lo, stage), -1
	if stage >= e.n {
		e.saved = append(e.saved, saved{stage: e.n, rank: -1})
		for ; e.n <= stage; e.n++ {
			e.price(s, e.n)
		}
		return
	}
	st, old := s.Stages[stage], e.edges[stage]
	var es []edge
	if n := len(e.free); n > 0 {
		es, e.free = e.free[n-1][:0], e.free[:n-1]
	}
	for _, sg := range old {
		if int(sg.from) != rank {
			es = append(es, sg)
		}
	}
	e.saved = append(e.saved, saved{stage, rank, e.drain[stage][rank], old})
	e.drain[stage][rank], e.edges[stage] = e.pd.rowInputs(st, stage, rank, es)
}

// Cost returns the predicted cost of s, the working schedule: the base with
// the rows touched since the last Commit or Reject. Stages never priced are
// the base's and are priced here.
func (e *Evaluator) Cost(s *sched.Schedule) float64 {
	e.pd.check(s)
	n := s.NumStages()
	for ; e.n < n; e.n++ {
		e.price(s, e.n)
	}
	for len(e.base) <= n {
		e.base, e.cand = append(e.base, make([]float64, e.p)), append(e.cand, make([]float64, e.p))
	}
	e.lo = min(e.lo, n)
	for ; e.valid < e.lo; e.valid++ {
		step(e.edges[e.valid], e.drain[e.valid], e.base[e.valid], e.base[e.valid+1], e.arrive)
	}
	t := e.base[e.lo]
	for a := e.lo + 1; a <= n; a++ {
		step(e.edges[a-1], e.drain[a-1], t, e.cand[a], e.arrive)
		t = e.cand[a]
	}
	e.ran = n
	return latest(t)
}

// Commit makes the working schedule the new base.
func (e *Evaluator) Commit() {
	if e.ran >= 0 {
		for a := e.lo + 1; a <= e.ran; a++ {
			e.base[a], e.cand[a] = e.cand[a], e.base[a]
		}
		e.valid = e.ran
	} else {
		e.valid = min(e.valid, e.lo)
	}
	for _, sv := range e.saved {
		if sv.rank >= 0 {
			e.free = append(e.free, sv.edges)
		}
	}
	e.untouch()
}

// Reject restores the rows touched since the last Commit or Reject: the
// caller has put the working schedule back to the base, whose levels Cost
// never writes.
func (e *Evaluator) Reject() {
	for i := len(e.saved) - 1; i >= 0; i-- {
		sv := e.saved[i]
		if sv.rank < 0 {
			e.n = sv.stage
			continue
		}
		e.free = append(e.free, e.edges[sv.stage])
		e.edges[sv.stage] = sv.edges
		e.drain[sv.stage][sv.rank] = sv.drain
	}
	e.untouch()
}
