package probe_test

import (
	"testing"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/topo"
)

// The tuner reads the hierarchy, not the pairs: on the paper_sim_p64 platform
// (two seeds) core.Tune returns the same schedule for the hierarchy-driven
// profile as for the all-pairs one, and on the 16-node scale cluster at
// P = 256 the same as for the fabric's own oracle profile, which the survey
// approximates (an all-pairs probe there is 32 640 pairs).
func TestSparseProfileTunesToTheSamePlan(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      topo.Spec
		placement topo.Placement
		p         int
		seed      uint64
	}{
		{"quad64/seed1", topo.QuadCluster(), topo.RoundRobin{}, 64, 1},
		{"quad64/seed2", topo.QuadCluster(), topo.RoundRobin{}, 64, 2},
		{"scale256", fabric.ScaleClusterSpec(256, 16), topo.Block{}, 256, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.p > 64 && (testing.Short() || perftest.RaceEnabled) {
				t.Skip("the P=256 probe is ≈ 0.5 s plain")
			}
			world := func() *mpi.World {
				f, err := fabric.New(tc.spec, tc.placement, tc.p, fabric.GigEParams(tc.seed))
				if err != nil {
					t.Fatal(err)
				}
				return mpi.NewWorld(f)
			}
			t0 := time.Now()
			sparse, err := probe.Measure(world(), probe.Default())
			if err != nil {
				t.Fatal(err)
			}
			t1 := time.Now()
			var full *profile.Profile
			if tc.p > 64 {
				full = world().Fabric().TrueProfile()
			} else if full, err = probe.MeasureAllPairs(world(), probe.Default()); err != nil {
				t.Fatal(err)
			}
			t.Logf("sparse probe %v, reference %v", t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))
			if sparse.Provenance == nil || full.Provenance != nil {
				t.Fatalf("provenance: sparse %v, reference %v", sparse.Provenance, full.Provenance)
			}
			opts := core.Options{Refine: 2000, RefineSeed: tc.seed}
			a, err := core.Tune(sparse, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Tune(full, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Schedule().Equal(b.Schedule()) {
				t.Fatalf("sparse-probed profile tunes to %s (%.3f us), reference profile to %s (%.3f us)",
					a.Schedule().Name, a.Result.PredictedCost*1e6, b.Schedule().Name, b.Result.PredictedCost*1e6)
			}
			t.Logf("%s: predicted %.3f us on the sparse profile, %.3f us on the reference", a.Schedule().Name, a.Result.PredictedCost*1e6, b.Result.PredictedCost*1e6)
		})
	}
}
