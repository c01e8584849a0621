package topobarrier_test

import (
	"strings"
	"testing"

	"topobarrier"
)

// TestPublicPipeline exercises the documented quickstart flow end to end
// through the public facade only.
func TestPublicPipeline(t *testing.T) {
	fab, err := topobarrier.NewFabric(topobarrier.QuadCluster(), topobarrier.RoundRobin{}, 24, topobarrier.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	world := topobarrier.NewWorld(fab)

	cfg := topobarrier.DefaultProbe()
	cfg.Replicate = true
	prof, err := topobarrier.MeasureProfile(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.P != 24 {
		t.Fatalf("profile P = %d", prof.P)
	}

	tuned, err := topobarrier.Tune(prof, topobarrier.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := topobarrier.Validate(world, tuned.Func(), 0.5, []int{0, 11, 23}); err != nil {
		t.Fatal(err)
	}

	hybrid, err := topobarrier.Measure(world, tuned.Func(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := topobarrier.Measure(world, topobarrier.MPIBarrier, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Mean > 1.15*mpi.Mean {
		t.Fatalf("tuned barrier %.1fµs slower than MPI tree %.1fµs", hybrid.Mean*1e6, mpi.Mean*1e6)
	}

	src, err := tuned.GenerateSource(topobarrier.CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "c.Stage(") {
		t.Fatalf("generated source has no sends")
	}
}

func TestPublicScheduleAndPredictor(t *testing.T) {
	fab, err := topobarrier.NewFabric(topobarrier.HexCluster(), topobarrier.Block{}, 36, topobarrier.GigEParams(2))
	if err != nil {
		t.Fatal(err)
	}
	prof := fab.TrueProfile()
	pd := topobarrier.NewPredictor(prof)
	lin := pd.Cost(topobarrier.Linear(36))
	tree := pd.Cost(topobarrier.Tree(36))
	dis := pd.Cost(topobarrier.Dissemination(36))
	if !(tree < lin) || dis <= 0 {
		t.Fatalf("predicted costs implausible: L=%g D=%g T=%g", lin, dis, tree)
	}
	// The public compiled plan must synchronise too.
	pl, err := topobarrier.NewPlan(topobarrier.Tree(36))
	if err != nil {
		t.Fatal(err)
	}
	if err := topobarrier.Validate(topobarrier.NewWorld(fab), pl.Func(), 0.5, []int{0, 35}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicClusteringAndHeatMap(t *testing.T) {
	fab, err := topobarrier.NewFabric(topobarrier.SingleNode(2, 4, 2), topobarrier.Block{}, 8, topobarrier.GigEParams(3))
	if err != nil {
		t.Fatal(err)
	}
	prof := fab.TrueProfile()
	tree := topobarrier.ClusterRanks(prof, topobarrier.ClusterOptions{})
	if tree.IsLeaf() {
		t.Fatalf("single node shows no internal locality")
	}
	hm := topobarrier.HeatMap(prof.L, "L matrix, 2x4 cores")
	if !strings.Contains(hm, "L matrix") {
		t.Fatalf("heat map broken")
	}
	if len(topobarrier.PaperBuilders()) != 3 || len(topobarrier.ExtendedBuilders()) != 5 {
		t.Fatalf("builder sets changed")
	}
}

// TestRetuneAfterPlacementChange is the §VIII re-tuning scenario
// examples/retune prints: a job tuned under block placement is rescheduled
// round-robin; the stale plan still synchronises but has lost its locality,
// and re-profiling and re-tuning on the new layout wins it back.
func TestRetuneAfterPlacementChange(t *testing.T) {
	const p = 24
	cfg := topobarrier.DefaultProbe()
	cfg.Replicate = true
	worldFor := func(pl topobarrier.Placement, seed uint64) *topobarrier.World {
		fab, err := topobarrier.NewFabric(topobarrier.QuadCluster(), pl, p, topobarrier.GigEParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		return topobarrier.NewWorld(fab)
	}
	mean := func(w *topobarrier.World, b topobarrier.BarrierFunc) float64 {
		m, err := topobarrier.Measure(w, b, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		return m.Mean
	}

	before := worldFor(topobarrier.Block{}, 1)
	tuned, err := topobarrier.ProfileAndTune(before, cfg, topobarrier.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := mean(before, tuned.Func())

	after := worldFor(topobarrier.RoundRobin{}, 2)
	if err := topobarrier.Validate(after, tuned.Func(), 0.5, []int{0, p - 1}); err != nil {
		t.Fatalf("stale plan no longer synchronises: %v", err)
	}
	stale := mean(after, tuned.Func())
	if stale < 1.3*base {
		t.Fatalf("placement change did not hurt the stale barrier: %g vs %g", stale, base)
	}

	retuned, err := topobarrier.ProfileAndTune(after, cfg, topobarrier.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := mean(after, retuned.Func()); fresh >= stale {
		t.Fatalf("re-tuned barrier no better: %g vs stale %g", fresh, stale)
	}
}
