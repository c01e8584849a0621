package predict

import (
	"math"
	"testing"

	"topobarrier/internal/sched"
)

// TestCriticalPathConsistentWithCost pins the predicted chain against the
// model it explains: on the classic schedules over uniform and clustered
// profiles, the path must have one step per stage, end at exactly Cost, be
// monotone in time, be chained (each step's From is the next thing the walk
// explains), and only claim message hops the schedule actually contains.
func TestCriticalPathConsistentWithCost(t *testing.T) {
	profiles := map[string]func(p int) *Predictor{
		"uniform":   func(p int) *Predictor { return New(uniformProfile(p, 4e-6, 24e-6, 1e-6)) },
		"clustered": func(p int) *Predictor { return New(clusteredProfile(p, 2e-6, 9e-6, 6e-6, 85e-6, 1e-6)) },
		"eq1": func(p int) *Predictor {
			pd := New(clusteredProfile(p, 2e-6, 9e-6, 6e-6, 85e-6, 1e-6))
			pd.Policy = AlwaysEq1
			return pd
		},
	}
	schedules := map[string]func(p int) *sched.Schedule{
		"tree":          sched.Tree,
		"linear":        sched.Linear,
		"dissemination": sched.Dissemination,
	}
	for pname, mk := range profiles {
		for sname, mkSched := range schedules {
			for _, p := range []int{5, 8, 13} {
				pd := mk(p)
				s := mkSched(p)
				path := pd.CriticalPath(s)
				cost := pd.Cost(s)
				if len(path) != s.NumStages() {
					t.Fatalf("%s/%s p=%d: %d steps for %d stages", pname, sname, p, len(path), s.NumStages())
				}
				if got := path[len(path)-1].At; math.Abs(got-cost) > 1e-15 {
					t.Errorf("%s/%s p=%d: path ends at %g, Cost is %g", pname, sname, p, got, cost)
				}
				prev := 0.0
				for k, st := range path {
					if st.Stage != k {
						t.Errorf("%s/%s p=%d: step %d labelled stage %d", pname, sname, p, k, st.Stage)
					}
					if st.At < prev {
						t.Errorf("%s/%s p=%d: time went backwards at stage %d (%g < %g)", pname, sname, p, k, st.At, prev)
					}
					prev = st.At
					if st.From != st.To && !s.Stages[k].At(st.From, st.To) {
						t.Errorf("%s/%s p=%d: stage %d claims hop %d→%d the schedule does not send", pname, sname, p, k, st.From, st.To)
					}
					if k+1 < len(path) && path[k+1].From != st.To {
						t.Errorf("%s/%s p=%d: chain broken between stages %d and %d (%+v then %+v)", pname, sname, p, k, k+1, st, path[k+1])
					}
				}
			}
		}
	}
}

// TestCriticalPathEmptySchedule pins the degenerate case.
func TestCriticalPathEmptySchedule(t *testing.T) {
	pd := New(uniformProfile(4, 4e-6, 24e-6, 1e-6))
	if path := pd.CriticalPath(sched.New("empty", 4)); path != nil {
		t.Errorf("empty schedule produced a path: %v", path)
	}
}
