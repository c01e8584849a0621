package predict

import "topobarrier/internal/sched"

// PathStep is one step of the predicted critical path: what determined the
// completion of stage Stage at rank To. From != To means the arrival of the
// signal From→To was the binding constraint (a message hop of the chain);
// From == To means the rank's own send-batch drain dominated and the chain
// stays local for the stage.
type PathStep struct {
	Stage    int
	From, To int
	// At is the predicted completion time of the stage at To — the same
	// value Timeline reports at out[Stage][To].
	At float64
}

// CriticalPath walks back over Timeline's completion times from the rank whose
// final-stage completion is the schedule's predicted Cost, asking at every
// (stage, rank) cell which term of the recurrence realized its max: the
// rank's own batch drain or the arrival of one of the stage's signals. The
// result is ordered earliest stage first and always has exactly NumStages
// steps: the chain of batch drains and message arrivals the model says the
// barrier's completion time is made of. Ties resolve the way Cost resolves
// them (own batch first, then lower sender rank), so the reported chain is
// deterministic.
func (pd *Predictor) CriticalPath(s *sched.Schedule) []PathStep {
	times := pd.Timeline(s)
	if len(times) == 0 {
		return nil
	}
	last := len(times) - 1
	r := 0
	for i := 1; i < s.P; i++ {
		if times[last][i] > times[last][r] {
			r = i
		}
	}
	steps := make([]PathStep, len(times))
	for k := last; k >= 0; k-- {
		st, ready := s.Stages[k], pd.stageReady(k)
		// drained is when m's stage-k batch drains: the time its signals land.
		drained := func(m int) float64 {
			if k == 0 {
				return pd.rowCost(st, m, ready)
			}
			return times[k-1][m] + pd.rowCost(st, m, ready)
		}
		from, best := r, drained(r)
		for _, m := range st.Col(r) {
			if a := drained(m); a > best {
				from, best = m, a
			}
		}
		steps[k] = PathStep{Stage: k, From: from, To: r, At: times[k][r]}
		r = from
	}
	return steps
}
