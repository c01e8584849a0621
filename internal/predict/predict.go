// Package predict couples the algorithmic model to the topological model
// (§VI): it weights the incidence matrices of a schedule with the batch costs
// implied by the paper's Equations 1 and 2 and reports the critical-path cost
// of the resulting layered dependency graph — the predicted execution time of
// the barrier on the profiled platform.
package predict

import (
	"fmt"
	"math/bits"

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

// rowCost evaluates the cost of rank i sending one signal to each of its
// targets in one stage matrix, read off the row's bitset words, targets
// increasing. With ready=false this is the paper's Eq. 1,
// max_k O[i][jk] + Σ_k L[i][jk]; with ready=true it is Eq. 2,
// O[i][i] + Σ_k L[i][jk]. An empty row costs nothing.
func (pd *Predictor) rowCost(st *mat.Bool, i int, ready bool) float64 {
	wpr := st.WordsPerRow()
	sumL, maxO := 0.0, 0.0
	sent := false
	for w, word := range st.Words()[i*wpr : (i+1)*wpr] {
		for word != 0 {
			j := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			sent = true
			sumL += pd.Prof.L.At(i, j)
			if o := pd.Prof.O.At(i, j); o > maxO {
				maxO = o
			}
		}
	}
	if !sent {
		return 0
	}
	if ready {
		return pd.Prof.O.At(i, i) + sumL
	}
	return maxO + sumL
}

// forward runs the layered dependency graph's recurrence and returns every
// rank's completion time of the last stage; stage, when non-nil, sees the
// completion times of each stage k as they are produced (the slice is reused).
// Rank i's stage completes when its own send batch has drained and every
// signal addressed to it in the stage has arrived; a signal from m arrives
// when m's batch (begun at m's previous-stage completion) drains.
func (pd *Predictor) forward(s *sched.Schedule, stage func(k int, done []float64)) []float64 {
	pd.check(s)
	t := make([]float64, s.P) // completion time of the previous stage
	next := make([]float64, s.P)
	arrive := make([]float64, s.P)
	for k, st := range s.Stages {
		ready := pd.stageReady(k)
		for i := range next {
			a := t[i] + pd.rowCost(st, i, ready)
			arrive[i], next[i] = a, a
		}
		// Receives: signal m→i lands when m's batch drains.
		st.Each(func(m, i int) {
			if arrive[m] > next[i] {
				next[i] = arrive[m]
			}
		})
		if stage != nil {
			stage(k, next)
		}
		t, next = next, t
	}
	return t
}

// Cost returns the predicted execution time of the schedule: the critical
// path from all arrivals through all departures of the layered dependency
// graph, i.e. the latest completion of the last stage.
func (pd *Predictor) Cost(s *sched.Schedule) float64 {
	max := 0.0
	for _, v := range pd.forward(s, nil) {
		if v > max {
			max = v
		}
	}
	return max
}

// Timeline returns the predicted per-stage completion times of the model's
// layered dependency graph: out[k][i] is the time rank i completes stage k,
// under the same recurrence Cost collapses to its maximum. This is the
// predicted side of the §VI validation at stage granularity — lined up
// against observed per-stage completions from an instrumented execution it
// yields the predicted-vs-measured drift table.
func (pd *Predictor) Timeline(s *sched.Schedule) [][]float64 {
	out := make([][]float64, s.NumStages())
	pd.forward(s, func(k int, done []float64) { out[k] = append([]float64(nil), done...) })
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
