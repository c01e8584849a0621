package baseline

import (
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func testWorld(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

func TestAllBaselinesSynchronise(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 7, 8, 9, 16} {
		if err := run.Validate(testWorld(t, p, 1), Tree, 0.5, nil); err != nil {
			t.Fatalf("tree at p=%d: %v", p, err)
		}
	}
}

// Measure builds the baseline's programs once and repeats them, so in steady
// state a barrier allocates nothing: N and 2N barriers inside one World.Run
// cost the same. The fabric is noise-free so the count is exact.
func TestBaselineAllocsIndependentOfBarrierCount(t *testing.T) {
	params := fabric.GigEParams(1)
	params.SelfSigma = 0
	for c, l := range params.Classes {
		l.Sigma = 0
		params.Classes[c] = l
	}
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 24, params)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(f)
	perftest.SteadyAllocs(t, "tree", 40, func(iters int) {
		if _, err := run.Measure(w, Tree, 0, iters); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTreeMatchesScheduleShape(t *testing.T) {
	// The hard-coded binomial tree and the schedule-driven tree must have
	// comparable cost: both cross the node boundary the same number of
	// times. Allow a 2x band for the differing stage-synchronisation slack.
	for _, p := range []int{8, 16, 24} {
		hard, err := run.Measure(testWorld(t, p, 5), Tree, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := run.NewPlan(sched.Tree(p))
		if err != nil {
			t.Fatal(err)
		}
		planned, err := run.Measure(testWorld(t, p, 5), pl.Func(), 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		ratio := hard.Mean / planned.Mean
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("p=%d: hard-coded tree %g vs schedule tree %g (ratio %.2f)", p, hard.Mean, planned.Mean, ratio)
		}
	}
}

func BenchmarkBaselineTree64(b *testing.B) {
	w := testWorld(b, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run.Measure(w, Tree, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
