package search

import (
	"testing"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// TestAnnealTelemetryCounters checks that an instrumented search populates
// the registry and that the counters are internally consistent with the
// returned result.
func TestAnnealTelemetryCounters(t *testing.T) {
	pf := uniformProfile(8)
	pd := predict.New(pf)
	reg := telemetry.NewRegistry()
	res, err := Anneal(pd, sched.Dissemination(8), AnnealOptions{
		Seed: 3, Budget: 2 * 3 * exchangeEvery, Restarts: 2, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	candidates := reg.Counter("search_candidates_total").Value()
	if candidates == 0 {
		t.Fatal("search_candidates_total stayed 0")
	}
	if int(candidates) != res.Examined {
		t.Fatalf("search_candidates_total = %d, result.Examined = %d", candidates, res.Examined)
	}
	if accepts := reg.Counter("search_accepts_total").Value(); accepts < 0 || accepts > candidates {
		t.Fatalf("accepts %d out of range [0, %d]", accepts, candidates)
	}
	if got := reg.Counter("search_exchange_rounds_total").Value(); got != 3 {
		t.Fatalf("exchange rounds = %d, want 3", got)
	}
	if got := reg.Gauge("search_restarts").Value(); got != 2 {
		t.Fatalf("search_restarts gauge = %g, want 2", got)
	}
	if got := reg.Gauge("search_best_cost_seconds").Value(); got != res.Cost {
		t.Fatalf("best cost gauge = %g, result cost = %g", got, res.Cost)
	}
	for r := 0; r < 2; r++ {
		name := telemetry.Label("search_restart_steps", "restart", string(rune('0'+r)))
		if got := reg.Gauge(name).Value(); got != 3*exchangeEvery {
			t.Fatalf("%s = %g, want %d", name, got, 3*exchangeEvery)
		}
	}
}

// TestAnnealTelemetryDoesNotChangeResult pins the determinism contract:
// attaching a registry must not perturb the search outcome.
func TestAnnealTelemetryDoesNotChangeResult(t *testing.T) {
	pf := uniformProfile(8)
	pd := predict.New(pf)
	opts := AnnealOptions{Seed: 11, Budget: 1000, Restarts: 2}
	plain, err := Anneal(pd, sched.Dissemination(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.NewRegistry()
	traced, err := Anneal(pd, sched.Dissemination(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != traced.Cost || plain.Examined != traced.Examined {
		t.Fatalf("telemetry changed the result: plain (%g, %d) vs traced (%g, %d)",
			plain.Cost, plain.Examined, traced.Cost, traced.Examined)
	}
	if plain.Schedule.String() != traced.Schedule.String() {
		t.Fatal("telemetry changed the found schedule")
	}
}
