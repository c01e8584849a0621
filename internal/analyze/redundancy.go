package analyze

import (
	"fmt"
	"sort"

	"topobarrier/internal/mat"
	"topobarrier/internal/sched"
)

// redundancy greedily minimises a verified barrier: it removes whole stages
// (latest first), then individual signals (latest stage first), re-verifying
// Eq. 3 after every candidate removal so the removal order is safe — after
// each accepted removal the remaining pattern is still a proven barrier.
// Removable stages and signals are reported as optimisation opportunities;
// when a predictor is available the total predicted saving is priced.
func redundancy(s *sched.Schedule, opts Options) []Finding {
	if s.P > redundancyMaxP {
		return []Finding{{
			Check: "redundancy-skipped", Severity: Info, Stage: -1,
			Message: fmt.Sprintf("redundancy analysis skipped: %d ranks exceeds the %d-rank bound", s.P, redundancyMaxP),
		}}
	}

	// Both passes re-verify on one closure over a working copy's stage slice:
	// a stage trial is the slice without that stage, a signal trial toggles
	// the copy's matrix in place.
	c := s.Clone()
	cl := mat.NewClosure(c.P)
	origIdx := make([]int, c.NumStages()) // current stage index → original index
	for k := range origIdx {
		origIdx[k] = k
	}

	// Pass 1: whole stages, latest first (departure-side redundancy drops
	// without disturbing the arrival funnel the later stages depend on).
	var redundantStages []int
	trial := make([]*mat.Bool, 0, c.NumStages())
	for k := c.NumStages() - 1; k >= 0; k-- {
		trial = append(append(trial[:0], c.Stages[:k]...), c.Stages[k+1:]...)
		if len(trial) > 0 && cl.Run(trial, nil) >= 0 {
			redundantStages = append(redundantStages, origIdx[k])
			c.Stages, trial = trial, c.Stages
			origIdx = append(origIdx[:k:k], origIdx[k+1:]...)
		}
	}

	// Pass 2: individual signals, latest stage first.
	var redundantEdges []Edge
	for k := c.NumStages() - 1; k >= 0; k-- {
		st := c.Stages[k]
		st.Each(func(i, j int) {
			st.Set(i, j, false)
			if cl.Run(c.Stages, nil) >= 0 {
				redundantEdges = append(redundantEdges, Edge{Stage: origIdx[k], From: i, To: j})
			} else {
				st.Set(i, j, true)
			}
		})
	}

	if len(redundantStages) == 0 && len(redundantEdges) == 0 {
		return nil
	}

	sort.Ints(redundantStages)
	var fs []Finding
	for _, k := range redundantStages {
		fs = append(fs, Finding{
			Check: "redundant-stage", Severity: Info, Stage: k,
			Message: fmt.Sprintf("stage %d is removable: Eq. 3 still holds without it", k),
		})
	}
	if len(redundantEdges) > 0 {
		fs = append(fs, Finding{
			Check: "redundant-signals", Severity: Info, Stage: -1, Edges: redundantEdges,
			Message: fmt.Sprintf("%d signals are removable without breaking Eq. 3 (verified greedily, latest stage first)", len(redundantEdges)),
		})
	}

	summary := Finding{
		Check: "redundancy-summary", Severity: Info, Stage: -1,
		Message: fmt.Sprintf("minimised pattern keeps %d of %d signals across %d of %d stages",
			c.SignalCount(), s.SignalCount(), c.DropEmptyStages().NumStages(), s.NumStages()),
	}
	if pd := opts.Predictor; pd != nil && pd.Prof != nil && pd.Prof.P == s.P {
		delta := pd.Cost(s) - pd.Cost(c.DropEmptyStages())
		summary.CostDelta = delta
		summary.Message += fmt.Sprintf("; predicted saving %.2fµs per barrier", delta*1e6)
	}
	return append(fs, summary)
}
