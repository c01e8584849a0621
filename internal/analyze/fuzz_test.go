package analyze

import (
	"encoding/json"
	"testing"

	"topobarrier/internal/sched"
)

// FuzzCertifyAgreesWithBruteForce cross-checks the resilience certifier
// against an independent oracle on arbitrary decoded schedules at small P:
// for every fault set of size ≤ k, drop the set's sends with
// Schedule.Silence, recompute Eq. 3 from scratch, and test survivor closure
// with IsGroupBarrier. The certifier's verdict must match "no such set
// breaks the survivors", and any counterexample it reports must actually
// break — the property that makes a Certified{k} finding trustworthy.
func FuzzCertifyAgreesWithBruteForce(f *testing.F) {
	for _, s := range []*sched.Schedule{
		sched.Dissemination(4), sched.SymmetricDissemination(4),
		sched.Linear(5), sched.Tree(8), sched.RecursiveDoubling(4),
		doubled(sched.Dissemination(4)),
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
		if k < 1 || k > 3 || s.P-k < 2 {
			return
		}
		if !s.IsBarrier() {
			return // certification is defined over verified barriers
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
