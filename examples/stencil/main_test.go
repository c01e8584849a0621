package main

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func world(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

func plan(t testing.TB, s *sched.Schedule) run.Func {
	t.Helper()
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl.Func()
}

func TestRunBSPValidation(t *testing.T) {
	w := world(t, 4, 1)
	b := plan(t, sched.Tree(4))
	if _, err := runBSP(w, bspConfig{Iterations: 0, Barrier: b}); err == nil {
		t.Fatalf("zero iterations accepted")
	}
	if _, err := runBSP(w, bspConfig{Iterations: 1}); err == nil {
		t.Fatalf("nil barrier accepted")
	}
	if _, err := runBSP(w, bspConfig{Iterations: 1, Barrier: b, Imbalance: 2}); err == nil {
		t.Fatalf("imbalance > 1 accepted")
	}
}

func TestPureSynchronizationWorkload(t *testing.T) {
	w := world(t, 16, 2)
	res, err := runBSP(w, bspConfig{Iterations: 20, Barrier: baseline.Tree})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdealCompute != 0 {
		t.Fatalf("no compute configured but ideal = %g", res.IdealCompute)
	}
	if res.Total <= 0 || res.Overhead != res.Total {
		t.Fatalf("pure-sync accounting wrong: %+v", res)
	}
}

func TestComputeDominatedWorkload(t *testing.T) {
	// With 10ms compute per superstep, barrier cost (~100µs) must be a small
	// fraction.
	w := world(t, 16, 3)
	res, err := runBSP(w, bspConfig{
		Iterations: 5, ComputeMean: 10e-3, Barrier: baseline.Tree, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IdealCompute-5*10e-3) > 1e-9 {
		t.Fatalf("ideal compute = %g, want 50ms", res.IdealCompute)
	}
	if frac := res.Overhead / res.Total; frac > 0.15 {
		t.Fatalf("overhead fraction %g too high for coarse grain", frac)
	}
	if res.Overhead <= 0 {
		t.Fatalf("overhead = %g", res.Overhead)
	}
}

func TestImbalanceRaisesIdealTime(t *testing.T) {
	w := world(t, 8, 4)
	balanced, err := runBSP(w, bspConfig{Iterations: 10, ComputeMean: 1e-3, Barrier: baseline.Tree, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := runBSP(w, bspConfig{Iterations: 10, ComputeMean: 1e-3, Imbalance: 0.5, Barrier: baseline.Tree, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// With stragglers the critical-path compute grows.
	if skewed.IdealCompute <= balanced.IdealCompute {
		t.Fatalf("imbalance did not raise ideal time: %g vs %g", skewed.IdealCompute, balanced.IdealCompute)
	}
}

func TestTunedBarrierReducesApplicationOverhead(t *testing.T) {
	// The application-level claim: at fine grain, replacing the MPI tree
	// barrier with the tuned hybrid reduces the application's
	// synchronization overhead.
	p := 24
	w := world(t, p, 5)
	tuned, err := core.Tune(w.Fabric().TrueProfile(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bspConfig{Iterations: 30, ComputeMean: 20e-6, Imbalance: 0.2, Seed: 9, Barrier: tuned.Func()}
	hybrid, err := runBSP(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Barrier = baseline.Tree
	mpiTree, err := runBSP(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Overhead >= mpiTree.Overhead {
		t.Fatalf("tuned barrier did not reduce app overhead: %.1fµs vs %.1fµs",
			hybrid.Overhead*1e6, mpiTree.Overhead*1e6)
	}
}

func TestHaloExchangeWorkload(t *testing.T) {
	for _, p := range []int{2, 3, 8, 12} {
		w := world(t, p, 6)
		res, err := runBSP(w, bspConfig{
			Iterations: 5, ComputeMean: 50e-6, HaloBytes: 4096,
			Barrier: plan(t, sched.Dissemination(p)), Seed: 3,
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Overhead <= 0 {
			t.Fatalf("p=%d: halo exchange costs nothing", p)
		}
	}
}

func TestHaloSingleRank(t *testing.T) {
	// p=1: halo exchange degenerates to nothing; must not deadlock.
	f, err := fabric.New(topo.SingleNode(1, 1, 0), topo.Block{}, 1, fabric.Params{
		Classes:      map[topo.LinkClass]fabric.Link{},
		SelfOverhead: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(f)
	res, err := runBSP(w, bspConfig{
		Iterations: 3, ComputeMean: 1e-6, HaloBytes: 128,
		Barrier: func(rank, p int) []mpi.Step { return nil }, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatalf("total = %g", res.Total)
	}
}

// runBSP as programs reproduces, bit for bit, the totals the workload's
// former per-call spelling (Compute, Irecv/Issend per neighbour on two tags,
// Wait, then the barrier) reached on commit 3e21247, with the halo exchange
// on, at two and sixteen ranks: the halo step's one tag tells neighbours
// apart by source, and at two ranks both messages of a direction share an
// envelope and match in arrival order at the same times.
func TestHaloTotalsMatchTheCallSpelling(t *testing.T) {
	want := map[string]string{
		"2/dissemination":  "0x1.db072970e2f0ap-12",
		"2/tree":           "0x1.dfb382cf2dbc6p-12",
		"16/dissemination": "0x1.de78530567dbcp-10",
		"16/tree":          "0x1.f63c9c05feb39p-10",
	}
	for _, p := range []int{2, 16} {
		for _, name := range []string{"dissemination", "tree"} {
			var b run.Func = baseline.Tree
			if name == "dissemination" {
				b = plan(t, sched.Dissemination(p))
			}
			res, err := runBSP(world(t, p, 6), bspConfig{
				Iterations: 8, ComputeMean: 50e-6, Imbalance: 0.2, HaloBytes: 4096, Barrier: b, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%d/%s", p, name)
			if got := strconv.FormatFloat(res.Total, 'x', -1, 64); got != want[key] {
				t.Errorf("%s: total %s, the call spelling's %s", key, got, want[key])
			}
		}
	}
}

func BenchmarkBSPWorkload24(b *testing.B) {
	w := world(b, 24, 1)
	for i := 0; i < b.N; i++ {
		if _, err := runBSP(w, bspConfig{Iterations: 10, ComputeMean: 20e-6, Barrier: baseline.Tree, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
