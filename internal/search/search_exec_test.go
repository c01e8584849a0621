package search

import (
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

// newWorld builds a quad-cluster world for execution checks.
func newWorld(t testing.TB, p int) *mpi.World {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(3))
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

// validateSchedule compiles a schedule and runs the paper's delay-injection
// check on its plan.
func validateSchedule(w *mpi.World, s *sched.Schedule) error {
	pl, err := run.NewPlan(s)
	if err != nil {
		return err
	}
	return run.Validate(w, pl.Func(), 0.5, []int{0, w.Size() / 2, w.Size() - 1})
}
