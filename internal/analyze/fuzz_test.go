package analyze

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"topobarrier/internal/sched"
)

// FuzzCertifyAgreesWithBruteForce cross-checks every caller of the Eq. 3
// closure kernel against the from-scratch Knowledge recurrence on arbitrary
// decoded schedules at small P. IsBarrier must equal "the last Knowledge
// matrix is all set"; on barriers, CriticalEdges must equal dropping each
// send in turn and recounting the unset pairs; and the resilience certifier
// must agree with, for every fault set of size ≤ k, dropping the set's sends
// with Schedule.Silence, recomputing Eq. 3 and testing survivor closure with
// IsGroupBarrier: its verdict must match "no such set breaks the survivors",
// and any counterexample it reports must actually break — the property that
// makes a Certified{k} finding trustworthy.
func FuzzCertifyAgreesWithBruteForce(f *testing.F) {
	for _, s := range []*sched.Schedule{
		sched.Dissemination(4), sched.SymmetricDissemination(4),
		sched.Linear(5), sched.Tree(8), sched.RecursiveDoubling(4),
		doubled(sched.Dissemination(4)),
		sched.LinearArrival(5), // not a barrier: only the IsBarrier oracle runs
	} {
		seed, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, 1)
		f.Add(seed, 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		var s sched.Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		// Bound the brute-force oracle: sum over sizes of C(P,m) stays tiny.
		if s.P < 2 || s.P > 8 || s.NumStages() > 8 {
			return
		}
		ks := s.Knowledge()
		barrier := len(ks) > 0 && ks[len(ks)-1].Count() == s.P*s.P
		if got := s.IsBarrier(); got != barrier {
			t.Fatalf("%q: IsBarrier=%v, but the last Knowledge matrix all set is %v", s.Name, got, barrier)
		}
		if !barrier {
			return // certification is defined over verified barriers
		}
		if got, want := CriticalEdges(&s), bruteCriticalEdges(&s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: CriticalEdges %v, drop-one-send brute force %v", s.Name, got, want)
		}
		if k < 1 || k > 3 || s.P-k < 2 {
			return
		}

		res := CertifyK(&s, k, ResilienceOptions{})
		if !res.Exhaustive {
			t.Fatalf("%q P=%d k=%d: small instance must enumerate exhaustively", s.Name, s.P, k)
		}

		// Oracle: enumerate every fault set of size 1..k.
		var oracle func(start int, faults []int) []int
		oracle = func(start int, faults []int) []int {
			if len(faults) > 0 && brokenBy(&s, faults) {
				return append([]int(nil), faults...)
			}
			if len(faults) == k {
				return nil
			}
			for r := start; r < s.P; r++ {
				if cex := oracle(r+1, append(faults, r)); cex != nil {
					return cex
				}
			}
			return nil
		}
		oracleCex := oracle(0, nil)

		if res.Certified != (oracleCex == nil) {
			t.Fatalf("%q P=%d k=%d: certifier says certified=%v, brute force found %v",
				s.Name, s.P, k, res.Certified, oracleCex)
		}
		if !res.Certified {
			if !brokenBy(&s, res.Counterexample) {
				t.Fatalf("%q k=%d: reported counterexample %v does not break the schedule",
					s.Name, k, res.Counterexample)
			}
			for i := range res.Counterexample {
				sub := append(append([]int(nil), res.Counterexample[:i]...), res.Counterexample[i+1:]...)
				if len(sub) > 0 && brokenBy(&s, sub) {
					t.Fatalf("%q k=%d: counterexample %v not minimal (%v breaks)",
						s.Name, k, res.Counterexample, sub)
				}
			}
			if len(res.Stalled) == 0 {
				t.Fatalf("%q k=%d: counterexample without witnesses", s.Name, k)
			}
		}
	})
}

// bruteCriticalEdges is the oracle for CriticalEdges: drop each send of a
// fresh copy in turn, recompute Knowledge from scratch and count the unset
// pairs of its last matrix; order most stalled first, then by stage, sender
// and receiver.
func bruteCriticalEdges(s *sched.Schedule) []CriticalEdge {
	var out []CriticalEdge
	for a, st := range s.Stages {
		for i := 0; i < s.P; i++ {
			for _, j := range st.Row(i) {
				c := s.Clone()
				c.Stages[a].Set(i, j, false)
				ks := c.Knowledge()
				if missing := s.P*s.P - ks[len(ks)-1].Count(); missing > 0 {
					out = append(out, CriticalEdge{Edge: Edge{Stage: a, From: i, To: j}, Stalled: missing})
				}
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		ex, ey := out[x], out[y]
		if ex.Stalled != ey.Stalled {
			return ex.Stalled > ey.Stalled
		}
		if ex.Edge.Stage != ey.Edge.Stage {
			return ex.Edge.Stage < ey.Edge.Stage
		}
		if ex.Edge.From != ey.Edge.From {
			return ex.Edge.From < ey.Edge.From
		}
		return ex.Edge.To < ey.Edge.To
	})
	return out
}
