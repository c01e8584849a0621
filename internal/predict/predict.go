// Package predict couples the algorithmic model to the topological model
// (§VI): it weights the incidence matrices of a schedule with the batch costs
// implied by the paper's Equations 1 and 2 and reports the critical-path cost
// of the resulting layered dependency graph — the predicted execution time of
// the barrier on the profiled platform.
package predict

import (
	"fmt"
	"math/bits"
	"slices"

	"topobarrier/internal/mat"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
)

// CostPolicy selects when the ready-receiver form (Eq. 2) applies.
type CostPolicy int

const (
	// FirstStageEq1 uses Eq. 1 for the first stage (receivers may not yet
	// await the signals) and Eq. 2 afterwards (within a running barrier,
	// receivers post before signalling). This is the default.
	FirstStageEq1 CostPolicy = iota
	// AlwaysEq1 uses the conservative full-overhead form everywhere.
	AlwaysEq1
)

// String returns a short policy name.
func (p CostPolicy) String() string {
	switch p {
	case FirstStageEq1:
		return "eq1-first-stage"
	case AlwaysEq1:
		return "always-eq1"
	default:
		return fmt.Sprintf("CostPolicy(%d)", int(p))
	}
}

// Predictor evaluates schedules against one profile.
type Predictor struct {
	Prof   *profile.Profile
	Policy CostPolicy
}

// New returns a predictor with the default policy.
func New(prof *profile.Profile) *Predictor {
	return &Predictor{Prof: prof, Policy: FirstStageEq1}
}

func (pd *Predictor) stageReady(stage int) bool {
	return pd.Policy != AlwaysEq1 && stage > 0
}

// edge is one signal of a stage, from → to.
type edge struct{ from, to int32 }

// rowInputs reads rank i's row of stage k of st once, targets increasing: it
// appends one edge per target to es and returns i's drain, its own completion
// offset in the stage — the Eq. 1/2 batch cost of the row under the policy.
// With Eq. 1 that is max_j O[i][j] + Σ_j L[i][j]; with Eq. 2 (a ready stage)
// it is O[i][i] + Σ_j L[i][j]. It is the one place the policy's send rule is
// applied. A row whose words are all zero drains nothing and adds no edge.
func (pd *Predictor) rowInputs(st *mat.Bool, k, i int, es []edge) (float64, []edge) {
	row := st.RowWords(i)
	w0 := 0
	for w0 < len(row) && row[w0] == 0 {
		w0++
	}
	if w0 == len(row) {
		return 0, es
	}
	// A written row is read as a slice, a row of O and L derived from one
	// tier table as the cell each target falls in, and anything else entry by
	// entry; the targets come in increasing order, so Σ L keeps its bits.
	O, L := pd.Prof.O, pd.Prof.L
	o, l := O.Row(i), L.Row(i)
	t := O.Tiers()
	dense, tiered := o != nil && l != nil, o == nil && l == nil && t != nil && t == L.Tiers()
	sumL, maxO := 0.0, 0.0
	for w, word := range row[w0:] {
		for ; word != 0; word &= word - 1 {
			j := (w0+w)*64 + bits.TrailingZeros64(word)
			var oj, lj float64
			switch {
			case dense:
				oj, lj = o[j], l[j]
			case tiered:
				c := t.Cell(i, j)
				oj, lj = O.Cell(c), L.Cell(c)
			default:
				oj, lj = O.At(i, j), L.At(i, j)
			}
			sumL += lj
			if oj > maxO {
				maxO = oj
			}
			es = append(es, edge{int32(i), int32(j)})
		}
	}
	if pd.stageReady(k) {
		return O.At(i, i) + sumL, es
	}
	return maxO + sumL, es
}

// stageInputs prices stage k of st for step: it fills drain with every rank's
// drain and returns the stage's signals, reusing es. Most rows of a stage the
// search appends are all zero, and rowInputs skips each after one look.
func (pd *Predictor) stageInputs(st *mat.Bool, k int, drain []float64, es []edge) []edge {
	es = es[:0]
	for i := range drain {
		drain[i], es = pd.rowInputs(st, k, i, es)
	}
	return es
}

// step is the layered dependency graph's stage body, the one copy of the
// recurrence. From the previous stage's completion times t it writes each
// rank's own batch drain, arrive[i] = t[i] + drain[i] — the time i's signals
// land — and each rank's completion next[i]: the latest of its own drain and
// every arrival addressed to it. max is order-independent (no cost of a
// usable profile is NaN), so any order of edges gives the same bits.
func step(edges []edge, drain, t, next, arrive []float64) {
	for i := range next {
		a := t[i] + drain[i]
		arrive[i], next[i] = a, a
	}
	for _, sg := range edges {
		next[sg.to] = max(next[sg.to], arrive[sg.from])
	}
}

// latest is a completion vector's maximum: the barrier's predicted cost.
func latest(t []float64) float64 {
	m := 0.0
	for _, v := range t {
		if v > m {
			m = v
		}
	}
	return m
}

// forward runs step over every stage of s from time zero and returns every
// rank's completion time of the last stage; stage, when non-nil, sees each
// stage k's completion and arrival times as they are produced (the slices
// are reused).
func (pd *Predictor) forward(s *sched.Schedule, stage func(k int, done, arrive []float64)) []float64 {
	pd.check(s)
	buf := make([]float64, 4*s.P)
	t, next, drain, arrive := buf[:s.P], buf[s.P:2*s.P], buf[2*s.P:3*s.P], buf[3*s.P:]
	es := make([]edge, 0, s.P)
	for k, st := range s.Stages {
		es = pd.stageInputs(st, k, drain, es)
		step(es, drain, t, next, arrive)
		if stage != nil {
			stage(k, next, arrive)
		}
		t, next = next, t
	}
	return t
}

// Cost returns the predicted execution time of the schedule: the critical
// path from all arrivals through all departures of the layered dependency
// graph, i.e. the latest completion of the last stage.
func (pd *Predictor) Cost(s *sched.Schedule) float64 {
	return latest(pd.forward(s, nil))
}

// Timeline returns the predicted per-stage completion times of the model's
// layered dependency graph: out[k][i] is the time rank i completes stage k,
// under the same recurrence Cost collapses to its maximum. This is the
// predicted side of the §VI validation at stage granularity — lined up
// against observed per-stage completions from an instrumented execution it
// yields the predicted-vs-measured drift table.
func (pd *Predictor) Timeline(s *sched.Schedule) [][]float64 {
	out := make([][]float64, s.NumStages())
	pd.forward(s, func(k int, done, _ []float64) { out[k] = slices.Clone(done) })
	return out
}

// ArrivalPhaseCost approximates the cost of a full barrier built from an
// arrival phase, following §VII.B: the arrival cost is doubled to account for
// the departure transposes, except when the component needs no departure
// (a root-level dissemination), where the multiplier is 1.
func (pd *Predictor) ArrivalPhaseCost(arrival *sched.Schedule, needsDeparture bool) float64 {
	c := pd.Cost(arrival)
	if needsDeparture {
		return 2 * c
	}
	return c
}

func (pd *Predictor) check(s *sched.Schedule) {
	if s.P != pd.Prof.P {
		panic(fmt.Sprintf("predict: %d-rank schedule against %d-rank profile", s.P, pd.Prof.P))
	}
}
