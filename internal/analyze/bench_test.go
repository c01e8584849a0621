package analyze

import (
	"fmt"
	"testing"

	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

func mustNewPlan(s *sched.Schedule) (*run.Plan, error) { return run.NewPlan(s) }

// BenchmarkCertifyK prices the resilience certifier at the library's largest
// corpus size, covering both verdict paths: the counterexample path
// (dissemination fails on the first singleton) and the full certification
// path (symmetric dissemination at k=1, doubled dissemination at k=2 —
// the latter enumerates all C(16,1)+C(16,2) fault sets). Archived as
// BENCH_vet.json by the bench-vet CI job.
func BenchmarkCertifyK(b *testing.B) {
	cases := []struct {
		name string
		s    *sched.Schedule
		k    int
	}{
		{"counterexample/dissemination", sched.Dissemination(16), 1},
		{"certify/symmetric-dissemination", sched.SymmetricDissemination(16), 1},
		{"counterexample/k2/symmetric-dissemination", sched.SymmetricDissemination(16), 2},
		{"certify/k2/double-dissemination", doubled(sched.Dissemination(16)), 2},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("P=16/k=%d/%s", c.k, c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CertifyK(c.s, c.k, ResilienceOptions{})
			}
		})
	}
}

// BenchmarkCriticalEdges prices the per-send removal sweep.
func BenchmarkCriticalEdges(b *testing.B) {
	s := sched.SymmetricDissemination(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CriticalEdges(s)
	}
}

// BenchmarkCheckPlan prices the plan-level protocol checker.
func BenchmarkCheckPlan(b *testing.B) {
	pl, err := mustNewPlan(sched.RecursiveDoubling(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CheckPlan(pl)
	}
}
