package core

import (
	"runtime"
	"strings"
	"testing"

	"topobarrier/internal/baseline"
	"topobarrier/internal/codegen"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
	"topobarrier/internal/topo"
)

func quadWorld(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

func TestTuneProducesValidSpecialisedBarrier(t *testing.T) {
	w := quadWorld(t, 24, 1)
	tuned, err := Tune(w.Fabric().TrueProfile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Schedule().IsBarrier() {
		t.Fatalf("tuned schedule not a barrier")
	}
	if tuned.PredictedCost() <= 0 {
		t.Fatalf("predicted cost %g", tuned.PredictedCost())
	}
	if tuned.Tree == nil || tuned.Tree.IsLeaf() {
		t.Fatalf("no hierarchy discovered")
	}
	if err := run.Validate(w, tuned.Func(), 0.5, []int{0, 7, 23}); err != nil {
		t.Fatal(err)
	}
}

// TestTuneRefinementNeverRegresses: with Refine set, Tune follows the greedy
// composition with a local-search pass. The refined result must still be a
// barrier, clear barriervet, price no worse than the plain composition, run
// correctly, and be deterministic regardless of GOMAXPROCS (the search
// portfolio's restarts run on however many cores it gives).
func TestTuneRefinementNeverRegresses(t *testing.T) {
	w := quadWorld(t, 24, 1)
	pf := w.Fabric().TrueProfile()
	plain, err := Tune(pf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refined, err := Tune(pf, Options{Refine: 4000, RefineSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !refined.Schedule().IsBarrier() {
		t.Fatalf("refined schedule not a barrier")
	}
	if err := refined.Report.Err(); err != nil {
		t.Fatalf("refined schedule carries error findings: %v", err)
	}
	if refined.PredictedCost() > plain.PredictedCost() {
		t.Fatalf("refinement regressed: %g > %g", refined.PredictedCost(), plain.PredictedCost())
	}
	if !refined.Result.Schedule.Equal(plain.Schedule()) || refined.Result.PredictedCost != plain.PredictedCost() || refined.Search == nil || plain.Search != nil {
		t.Fatalf("Result must stay the composition and Search carry the refinement")
	}
	if err := run.Validate(w, refined.Func(), 0.5, []int{0, 7, 23}); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	again, err := Tune(pf, Options{Refine: 4000, RefineSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Schedule().Equal(refined.Schedule()) {
		t.Fatalf("refinement depends on worker count")
	}
}

// TestTuneFromClassicSeed: TuneFrom vets a given seed and refines it like a
// composition. Without Refine the seed is the result unchanged; with it the
// result clears the gate and prices no higher than the seed; a seed that is
// not a barrier is refused.
func TestTuneFromClassicSeed(t *testing.T) {
	pf := quadWorld(t, 24, 1).Fabric().TrueProfile()
	seed := sched.Tree(24)
	seedCost := predict.New(pf).Cost(seed)
	plain, err := TuneFrom(pf, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Schedule() != seed || plain.PredictedCost() != seedCost || plain.Search != nil || len(plain.Result.Choices) != 0 {
		t.Fatalf("unrefined TuneFrom changed the seed: %s at %g", plain.Schedule().Name, plain.PredictedCost())
	}
	refined, err := TuneFrom(pf, seed, Options{Refine: 3000, RefineSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Search == nil || refined.Search.Examined == 0 || refined.Result.Schedule != seed {
		t.Fatalf("TuneFrom reports no search from the seed")
	}
	if err := refined.Report.Err(); err != nil || !refined.Schedule().IsBarrier() {
		t.Fatalf("refined schedule fails the gate: %v", err)
	}
	if refined.PredictedCost() > seedCost || refined.PredictedCost() != predict.New(pf).Cost(refined.Schedule()) {
		t.Fatalf("refined cost %g, seed %g", refined.PredictedCost(), seedCost)
	}
	broken := &sched.Schedule{Name: "broken(24)", P: 24, Stages: seed.Stages[:1]}
	if _, err := TuneFrom(pf, broken, Options{Refine: 100}); err == nil || !strings.Contains(err.Error(), "fails vet") {
		t.Fatalf("TuneFrom accepted a non-barrier seed: %v", err)
	}
}

// TestTuneCarriesVetReport: every Tuned barrier carries its barriervet
// report, the report agrees the schedule is a barrier, and it is free of
// Error-severity findings (which would have aborted Tune).
func TestTuneCarriesVetReport(t *testing.T) {
	tuned, err := Tune(quadWorld(t, 24, 1).Fabric().TrueProfile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Report == nil {
		t.Fatal("Tuned.Report is nil")
	}
	if !tuned.Report.Barrier {
		t.Fatalf("report disputes barrier verdict:\n%s", tuned.Report)
	}
	if err := tuned.Report.Err(); err != nil {
		t.Fatalf("tuned schedule carries error findings: %v", err)
	}
}

func TestTunePredictsNoWorseThanPureComponents(t *testing.T) {
	pf := quadWorld(t, 40, 2).Fabric().TrueProfile()
	tuned, err := Tune(pf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd := predict.New(pf)
	for _, pure := range []*sched.Schedule{sched.Linear(40), sched.Dissemination(40), sched.Tree(40)} {
		if tuned.PredictedCost() > pd.Cost(pure) {
			t.Fatalf("hybrid predicted %g, worse than %s %g", tuned.PredictedCost(), pure.Name, pd.Cost(pure))
		}
	}
}

func TestTunedBeatsOrMatchesMPIBaselineMeasured(t *testing.T) {
	// The headline claim (Figure 11): generated barrier performance is
	// similar to the MPI (tree) barrier at worst, significantly better in
	// most cases. Allow 10% slack for noise.
	for _, p := range []int{16, 24, 40} {
		w := quadWorld(t, p, 3)
		tuned, err := Tune(w.Fabric().TrueProfile(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		hybrid, err := run.Measure(quadWorld(t, p, 10), tuned.Func(), 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		mpiTree, err := run.Measure(quadWorld(t, p, 10), baseline.Tree, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if hybrid.Mean > 1.1*mpiTree.Mean {
			t.Fatalf("p=%d: hybrid %.1fµs worse than MPI tree %.1fµs",
				p, hybrid.Mean*1e6, mpiTree.Mean*1e6)
		}
	}
}

func TestProfileAndTuneEndToEnd(t *testing.T) {
	w := quadWorld(t, 16, 4)
	cfg := probe.Default()
	cfg.Replicate = true
	tuned, err := ProfileAndTune(w, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Profile.P != 16 {
		t.Fatalf("profile P = %d", tuned.Profile.P)
	}
	if err := run.Validate(w, tuned.Func(), 0.5, []int{0, 15}); err != nil {
		t.Fatal(err)
	}
	// The cache key separates what the spec does not encode (the salt) and
	// what changes the measurement (the probe configuration).
	fp := ProfileFingerprint(w, cfg, "seed=4")
	if fp != ProfileFingerprint(w, cfg, "seed=4") || fp == ProfileFingerprint(w, cfg, "seed=5") || fp == ProfileFingerprint(w, probe.Default(), "seed=4") {
		t.Fatal("ProfileFingerprint does not key on exactly the salt and the probe configuration")
	}
}

func TestGenerateSourceFromTuned(t *testing.T) {
	tuned, err := Tune(quadWorld(t, 12, 5).Fabric().TrueProfile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := tuned.GenerateSource(codegen.Options{Package: "main", FuncName: "TunedBarrier"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func TunedBarrier") {
		t.Fatalf("function missing:\n%s", src)
	}
}

func TestTuneRejectsInvalidProfile(t *testing.T) {
	bad := profile.New("bad", 4)
	bad.O.Set(0, 1, -1)
	if _, err := Tune(bad, Options{}); err == nil {
		t.Fatalf("invalid profile accepted")
	}
}

func TestTuneHonoursOptions(t *testing.T) {
	pf := quadWorld(t, 24, 6).Fabric().TrueProfile()
	flat, err := Tune(pf, Options{Clustering: sss.Options{MaxDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Tree.Depth() != 2 {
		t.Fatalf("MaxDepth ignored: depth %d", flat.Tree.Depth())
	}
	ext, err := Tune(pf, Options{Builders: sched.ExtendedBuilders()})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Schedule().IsBarrier() {
		t.Fatalf("extended tuning broken")
	}
	pol, err := Tune(pf, Options{Policy: predict.AlwaysEq1})
	if err != nil {
		t.Fatal(err)
	}
	if pol.PredictedCost() < flat.PredictedCost() {
		// AlwaysEq1 must not predict cheaper than the default policy for the
		// same shape of schedule; it may pick a different hybrid though, so
		// only sanity-check positivity.
		t.Logf("policy changed hybrid shape: %g vs %g", pol.PredictedCost(), flat.PredictedCost())
	}
}

func BenchmarkTune64(b *testing.B) {
	pf := quadWorld(b, 64, 1).Fabric().TrueProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tune(pf, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTuneOnAsymmetricProfile(t *testing.T) {
	// §IV.A: the cost matrices extend trivially to asymmetric links. Probe a
	// direction-skewed fabric — the symmetric protocol reads each pair's
	// mean over its two directions — split the mean back into the two
	// directed costs, and verify the tuned barrier is correct and
	// competitive there.
	params := fabric.GigEParams(6)
	params.DirectionSkew = 0.6
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 24, params)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(f)
	cfg := probe.Default()
	cfg.Replicate = true
	pf, err := probe.Measure(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pf.P; i++ {
		for j := 0; j < pf.P; j++ {
			if i == j {
				continue
			}
			dir := 1 / (1 + params.DirectionSkew/2)
			if f.TrueO(i, j) > f.TrueO(j, i) {
				dir *= 1 + params.DirectionSkew
			}
			pf.O.Set(i, j, pf.O.At(i, j)*dir)
			pf.L.Set(i, j, pf.L.At(i, j)*dir)
		}
	}
	if pf.O.At(0, 1) == pf.O.At(1, 0) {
		t.Fatal("profile is still symmetric")
	}
	tuned, err := Tune(pf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Validate(w, tuned.Func(), 0.5, []int{0, 12, 23}); err != nil {
		t.Fatal(err)
	}
	hybrid, err := run.Measure(w, tuned.Func(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	mpiTree, err := run.Measure(w, baseline.Tree, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Mean > 1.1*mpiTree.Mean {
		t.Fatalf("asymmetric hybrid %.1fµs worse than MPI tree %.1fµs", hybrid.Mean*1e6, mpiTree.Mean*1e6)
	}
}

func TestLowLatencyInterconnectNarrowsTheGap(t *testing.T) {
	// §VI: the hybrid's advantage stems from the inter-/intra-node latency
	// gap. On an RDMA-class fabric (IBParams) the gap is ~5x instead of
	// ~70x, so the tuned barrier's speedup over the MPI tree must shrink
	// relative to the GigE cluster — while remaining correct and no slower.
	const p = 40
	speedup := func(params fabric.Params) float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, params)
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(f)
		tuned, err := Tune(f.TrueProfile(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Validate(w, tuned.Func(), 0.25, []int{0, p - 1}); err != nil {
			t.Fatal(err)
		}
		hybrid, err := run.Measure(w, tuned.Func(), 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := run.Measure(w, baseline.Tree, 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		return tree.Mean / hybrid.Mean
	}
	gige := speedup(fabric.GigEParams(4))
	ib := speedup(fabric.IBParams(4))
	if gige <= ib {
		t.Fatalf("locality gap effect missing: GigE speedup %.2f vs IB %.2f", gige, ib)
	}
	if ib < 0.9 {
		t.Fatalf("hybrid slower than tree on IB: %.2f", ib)
	}
}

// TestTunePhaseSpans: with a tracer attached, the pipeline records one span
// per phase (profile/compose/vet, plus refine when enabled) and the
// predicted-cost gauge lands in the registry; without one, Tune behaves
// identically.
func TestTunePhaseSpans(t *testing.T) {
	w := quadWorld(t, 16, 1)
	pf := w.Fabric().TrueProfile()
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	tuned, err := Tune(pf, Options{Refine: 200, Tracer: tr, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, e := range tr.Events() {
		phases[e.Name]++
	}
	for _, want := range []string{"tune.compose", "tune.vet", "tune.refine"} {
		if phases[want] == 0 {
			t.Fatalf("missing phase span %q; got %v", want, phases)
		}
	}
	if got := reg.Gauge("tune_predicted_cost_seconds").Value(); got != tuned.PredictedCost() {
		t.Fatalf("predicted-cost gauge %g, want %g", got, tuned.PredictedCost())
	}
	if reg.Counter("search_candidates_total").Value() == 0 {
		t.Fatal("refinement search left no telemetry despite registry")
	}

	// ProfileAndTune adds the probing phase.
	tr2 := telemetry.NewTracer()
	if _, err := ProfileAndTune(quadWorld(t, 16, 2), probe.Default(), Options{Tracer: tr2}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range tr2.Events() {
		if e.Name == "tune.profile" {
			found = true
		}
	}
	if !found {
		t.Fatal("ProfileAndTune recorded no tune.profile span")
	}
}
