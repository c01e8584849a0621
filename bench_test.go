// Benchmarks regenerating every figure of the paper's evaluation section
// (run with -v to see the data tables) plus ablations of the design choices
// called out in DESIGN.md §5. Absolute numbers come from the simulated
// fabric; the reported metrics capture the *shapes* the paper claims.
package topobarrier_test

import (
	"testing"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/figures"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

// benchConfig keeps figure regeneration affordable inside testing.B while
// covering the full P range of the paper.
func benchConfig() figures.Config {
	cfg := figures.Default(1)
	cfg.Step = 4
	cfg.Iters = 8
	cfg.Warmup = 2
	return cfg
}

// BenchmarkFig5ValidationQuad regenerates Figure 5 (predicted vs measured
// D/T/L on the dual quad-core cluster) and reports the mean absolute
// prediction error in microseconds.
func BenchmarkFig5ValidationQuad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vd, err := figures.Validation(benchConfig(), topo.QuadCluster(), 64)
		if err != nil {
			b.Fatal(err)
		}
		f := vd.ComparisonFigure("Figure 5")
		b.Logf("\n%s", f.Table())
		reportPredictionError(b, vd)
	}
}

// BenchmarkFig6ValidationHex regenerates Figure 6 on the dual hex-core
// cluster.
func BenchmarkFig6ValidationHex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vd, err := figures.Validation(benchConfig(), topo.HexCluster(), 120)
		if err != nil {
			b.Fatal(err)
		}
		f := vd.ComparisonFigure("Figure 6")
		b.Logf("\n%s", f.Table())
		reportPredictionError(b, vd)
	}
}

// BenchmarkFig7IndividualQuad regenerates Figure 7 (per-algorithm measured
// vs predicted panels, quad cluster).
func BenchmarkFig7IndividualQuad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vd, err := figures.Validation(benchConfig(), topo.QuadCluster(), 64)
		if err != nil {
			b.Fatal(err)
		}
		f := vd.PerAlgorithmFigure("Figure 7")
		b.Logf("\n%s", f.Table())
	}
}

// BenchmarkFig8IndividualHex regenerates Figure 8 (per-algorithm panels,
// hex cluster).
func BenchmarkFig8IndividualHex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vd, err := figures.Validation(benchConfig(), topo.HexCluster(), 120)
		if err != nil {
			b.Fatal(err)
		}
		f := vd.PerAlgorithmFigure("Figure 8")
		b.Logf("\n%s", f.Table())
	}
}

// BenchmarkFig9LMatrixNode regenerates Figure 9 (the single-node L-matrix
// heat map) and reports the off-chip/on-chip latency ratio (paper: ~4).
func BenchmarkFig9LMatrixNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := figures.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", f.Table())
	}
}

// BenchmarkFig10HybridConstruction regenerates Figure 10 (the hierarchical
// barrier construction for 22 ranks on 3 round-robin nodes).
func BenchmarkFig10HybridConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := figures.Fig10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", f.Table())
	}
}

// BenchmarkFig11HybridVsMPIQuad regenerates Figure 11A and reports the best
// hybrid speedup over the MPI tree barrier (paper: significant improvement
// in most cases, never worse).
func BenchmarkFig11HybridVsMPIQuad(b *testing.B) {
	benchFig11(b, figures.Fig11Quad)
}

// BenchmarkFig11HybridVsMPIHex regenerates Figure 11B (paper: ~2x at the
// largest sizes).
func BenchmarkFig11HybridVsMPIHex(b *testing.B) {
	benchFig11(b, figures.Fig11Hex)
}

func benchFig11(b *testing.B, gen func(figures.Config) (*figures.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := gen(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", f.Table())
		mpiY, hybY := f.Series[0].Y, f.Series[1].Y
		last := len(mpiY) - 1
		b.ReportMetric(mpiY[last]/hybY[last], "speedup-at-maxP")
		worst := 0.0
		for k := range mpiY {
			if r := hybY[k] / mpiY[k]; r > worst {
				worst = r
			}
		}
		b.ReportMetric(worst, "worst-hybrid/mpi")
	}
}

func reportPredictionError(b *testing.B, vd *figures.ValidationData) {
	b.Helper()
	var errSum float64
	var n int
	for _, alg := range []string{"linear", "dissemination", "tree"} {
		for i := range vd.Ps {
			d := vd.Pred[alg][i] - vd.Meas[alg][i]
			if d < 0 {
				d = -d
			}
			errSum += d
			n++
		}
	}
	b.ReportMetric(errSum/float64(n)*1e6, "µs-mean-abs-error")
}

// --- Ablations (DESIGN.md §5) ---

func quadWorld(b *testing.B, p int, seed uint64) *mpi.World {
	b.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
	if err != nil {
		b.Fatal(err)
	}
	return mpi.NewWorld(f)
}

func measureTuned(b *testing.B, p int, opts core.Options, worldOpts ...mpi.Option) float64 {
	b.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(11))
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(f, worldOpts...)
	cfg := probe.Default()
	cfg.Replicate = true
	tuned, err := core.ProfileAndTune(w, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	m, err := run.Measure(w, tuned.Func(), 3, 12)
	if err != nil {
		b.Fatal(err)
	}
	return m.Mean
}

// BenchmarkAblationCostPolicy compares the two Eq. 1/Eq. 2 weighting
// policies by the measured cost of the hybrids they produce.
func BenchmarkAblationCostPolicy(b *testing.B) {
	policies := map[string]predict.CostPolicy{
		"eq1-first": predict.FirstStageEq1,
		"always1":   predict.AlwaysEq1,
	}
	for name, pol := range policies {
		pol := pol
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mean := measureTuned(b, 40, core.Options{Policy: pol})
				b.ReportMetric(mean*1e6, "µs/barrier")
			}
		})
	}
}

// BenchmarkAblationSparseness varies the SSS sparseness parameter around the
// paper's 35%.
func BenchmarkAblationSparseness(b *testing.B) {
	for _, s := range []float64{0.15, 0.35, 0.60} {
		s := s
		b.Run(sparsenessName(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mean := measureTuned(b, 40, core.Options{Clustering: sss.Options{Sparseness: s}})
				b.ReportMetric(mean*1e6, "µs/barrier")
			}
		})
	}
}

func sparsenessName(s float64) string {
	switch s {
	case 0.15:
		return "s15"
	case 0.35:
		return "s35"
	default:
		return "s60"
	}
}

// BenchmarkAblationHierarchyDepth compares the paper's two-level hierarchy
// against unlimited-depth clustering.
func BenchmarkAblationHierarchyDepth(b *testing.B) {
	for _, d := range []int{1, 0} {
		d := d
		name := "two-level"
		if d == 0 {
			name = "unbounded"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mean := measureTuned(b, 40, core.Options{Clustering: sss.Options{MaxDepth: d}})
				b.ReportMetric(mean*1e6, "µs/barrier")
			}
		})
	}
}

// BenchmarkAblationBuilders compares the paper's component set against the
// extended set (ring, k-ary tree).
func BenchmarkAblationBuilders(b *testing.B) {
	sets := map[string][]sched.Builder{
		"paper":    sched.PaperBuilders(),
		"extended": sched.ExtendedBuilders(),
	}
	for name, builders := range sets {
		builders := builders
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mean := measureTuned(b, 40, core.Options{Builders: builders})
				b.ReportMetric(mean*1e6, "µs/barrier")
			}
		})
	}
}

// BenchmarkAblationCongestion checks that tuning decisions stay sound when
// the runtime serialises cross-node messages through the NIC — an effect the
// static model ignores (§VIII).
func BenchmarkAblationCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hybrid := measureTuned(b, 40, core.Options{}, mpi.WithCongestion())
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 40, fabric.GigEParams(11))
		if err != nil {
			b.Fatal(err)
		}
		w := mpi.NewWorld(f, mpi.WithCongestion())
		m, err := run.Measure(w, baseline.Tree, 3, 12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.Mean/hybrid, "speedup-under-congestion")
	}
}

// BenchmarkAblationOracleProfile separates model error from measurement
// error: tuning on the noise-free oracle profile versus the probed one.
func BenchmarkAblationOracleProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		probed := measureTuned(b, 40, core.Options{})
		w := quadWorld(b, 40, 11)
		oracle, err := core.Tune(w.Fabric().TrueProfile(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := run.Measure(w, oracle.Func(), 3, 12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(probed*1e6, "µs-probed")
		b.ReportMetric(m.Mean*1e6, "µs-oracle")
	}
}
