package predict

import (
	"slices"

	"topobarrier/internal/sched"
)

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
// (stage, rank) cell which term of step's max realized it: the rank's own
// batch drain or the arrival of one of the stage's signals, read off step's
// arrival times. The result is ordered earliest stage first and always has
// exactly NumStages steps: the chain of batch drains and message arrivals the
// model says the barrier's completion time is made of. Ties resolve the way
// Cost resolves them (own batch first, then lower sender rank), so the
// reported chain is deterministic.
func (pd *Predictor) CriticalPath(s *sched.Schedule) []PathStep {
	n := s.NumStages()
	if n == 0 {
		return nil
	}
	// arrive[k][m] is when m's stage-k batch drains: the time its signals land.
	times, arrive := make([][]float64, n), make([][]float64, n)
	pd.forward(s, func(k int, done, arr []float64) {
		times[k], arrive[k] = slices.Clone(done), slices.Clone(arr)
	})
	r := 0
	for i := 1; i < s.P; i++ {
		if times[n-1][i] > times[n-1][r] {
			r = i
		}
	}
	steps := make([]PathStep, n)
	for k := n - 1; k >= 0; k-- {
		from := r
		for _, m := range s.Stages[k].Col(r) {
			if arrive[k][m] > arrive[k][from] {
				from = m
			}
		}
		steps[k] = PathStep{Stage: k, From: from, To: r, At: times[k][r]}
		r = from
	}
	return steps
}
