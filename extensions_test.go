package topobarrier_test

import (
	"testing"

	"topobarrier"
)

func hexWorld(t testing.TB, p int, seed uint64) (*topobarrier.World, *topobarrier.Fabric) {
	t.Helper()
	fab, err := topobarrier.NewFabric(topobarrier.HexCluster(), topobarrier.RoundRobin{}, p, topobarrier.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topobarrier.NewWorld(fab), fab
}

func TestPublicSearchImprovesSeed(t *testing.T) {
	_, fab := hexWorld(t, 24, 1)
	prof := fab.TrueProfile()
	pd := topobarrier.NewPredictor(prof)
	seed := topobarrier.Dissemination(24)
	res, err := topobarrier.AnnealSearch(pd, seed, topobarrier.AnnealOptions{Seed: 1, Budget: 4500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > pd.Cost(seed) {
		t.Fatalf("search worse than seed")
	}
	if !res.Schedule.IsBarrier() {
		t.Fatalf("search result not a barrier")
	}
}

func TestPublicTracing(t *testing.T) {
	fab, err := topobarrier.NewFabric(topobarrier.QuadCluster(), topobarrier.RoundRobin{}, 16, topobarrier.GigEParams(3))
	if err != nil {
		t.Fatal(err)
	}
	tl, elapsed, err := topobarrier.TraceBarrier(fab, topobarrier.MPIBarrier)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Messages) == 0 {
		t.Fatalf("no messages recorded")
	}
	if len(tl.CriticalPath()) == 0 {
		t.Fatalf("no critical path")
	}
	if _, end := tl.Span(); end != elapsed {
		t.Fatalf("timeline ends at %g, run at %g", end, elapsed)
	}
}
