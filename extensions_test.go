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
	res, err := topobarrier.AnnealSearch(pd, seed, topobarrier.AnnealOptions{Seed: 1, Steps: 1500})
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
	w, rec := topobarrier.NewTracedWorld(fab)
	if _, err := topobarrier.RunTracedOnce(w, topobarrier.MPIBarrier); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) == 0 {
		t.Fatalf("no events recorded")
	}
	if len(rec.CriticalPath()) == 0 {
		t.Fatalf("no critical path")
	}
}
