package mpi_test

import (
	"testing"

	"topobarrier/internal/compose"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

// The simulator message path as the ledger's simulated workloads use it: the
// probe, the validation and the plan barrier. The benchmarks report
// resumes/op, the rank coroutine resumes a run costs, and the first two
// busy-cores, the process's CPU time over wall time: above 1 while the fabric
// computes its noise a batch ahead on a second core.

func quadFabric(tb testing.TB, p int) *fabric.Fabric {
	tb.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// The P = 64 probe on the §VI quad cluster runs each side of a pair's
// protocol as one program, so its ranks are resumed a few times per pair, not
// once per blocking call: the per-call engine resumed them 123 988 times for
// the same 185 896 events.
func TestProbeResumesP64(t *testing.T) {
	w := mpi.NewWorld(quadFabric(t, 64))
	if _, err := probe.Measure(w, probe.Default()); err != nil {
		t.Fatal(err)
	}
	t.Logf("P=64 probe: %d events, %d resumes", w.Events(), w.Resumes())
	if w.Events() != 185896 {
		t.Errorf("P=64 probe ran %d events, want 185 896", w.Events())
	}
	if w.Resumes() > 3000 {
		t.Errorf("P=64 probe resumed ranks %d times, want at most 3 000", w.Resumes())
	}
}

// reportResumes reports the World's rank resumes per benchmark iteration.
func reportResumes(b *testing.B, resumes int) {
	b.ReportMetric(float64(resumes)/float64(b.N), "resumes/op")
}

// BenchmarkProbeMeasureP64 is the cold-start cost the ledger's paper_sim_p64
// workload is dominated by: the hierarchy-driven protocol on the §VI quad
// cluster. pairs/op is the number of pairs it actually measured, screens/op
// the number it screened to find the hierarchy.
func BenchmarkProbeMeasureP64(b *testing.B) {
	b.ReportAllocs()
	pairs, screens, resumes := 0, 0, 0
	cpu := perftest.CPUSeconds(b)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(quadFabric(b, 64))
		pf, err := probe.Measure(w, probe.Default())
		if err != nil {
			b.Fatal(err)
		}
		pairs += pf.MeasuredPairs()
		screens += pf.Provenance.Screened
		resumes += w.Resumes()
	}
	b.StopTimer()
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
	b.ReportMetric(float64(screens)/float64(b.N), "screens/op")
	reportResumes(b, resumes)
	b.ReportMetric((perftest.CPUSeconds(b)-cpu)/b.Elapsed().Seconds(), "busy-cores")
}

// BenchmarkValidateP64 is the delay-injection validation of the ledger's
// paper_sim_p64 workload: every one of 64 ranks delayed in turn on the hybrid
// plan tuned for the §VI quad cluster, one World.Run each.
func BenchmarkValidateP64(b *testing.B) {
	f := quadFabric(b, 64)
	pf := f.TrueProfile()
	res, err := compose.Hybrid(predict.New(pf), sss.Tree(pf, sss.Options{}), sched.PaperBuilders())
	if err != nil {
		b.Fatal(err)
	}
	pl, err := run.NewPlan(res.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(f)
	b.ReportAllocs()
	b.ResetTimer()
	cpu := perftest.CPUSeconds(b)
	for i := 0; i < b.N; i++ {
		if err := run.Validate(w, pl.Func(), 1e-3, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportResumes(b, w.Resumes())
	b.ReportMetric((perftest.CPUSeconds(b)-cpu)/b.Elapsed().Seconds(), "busy-cores")
}

// BenchmarkPlanBarrier32 is one World.Run of one binomial-tree barrier on a
// noise-free 4-node, 32-rank machine.
func BenchmarkPlanBarrier32(b *testing.B) {
	pl, err := run.NewPlan(sched.Tree(32))
	if err != nil {
		b.Fatal(err)
	}
	spec := topo.Spec{Name: "run-test", Nodes: 4, SocketsPerNode: 1, CoresPerSocket: 8}
	f, err := fabric.New(spec, topo.RoundRobin{}, 32, fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 2e-6, Beta: 0.4e-9, Lambda: 0.3e-6},
			topo.CrossNode:  {Alpha: 55e-6, Beta: 8e-9, Lambda: 8e-6},
		},
		SelfOverhead: 1e-6,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run.Measure(w, pl.Func(), 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportResumes(b, w.Resumes())
}
