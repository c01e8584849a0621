package search

import (
	"strconv"
	"sync"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
	"topobarrier/internal/telemetry"
)

// The parallel restart portfolio. Restarts are independent climbers advanced
// in lock-step rounds of exchangeEvery steps, each round one goroutine per
// restart. At each round's end the elite (cheapest current state, ties to the
// lowest restart index) is picked and its schedule handed to climbers that
// have fallen behind by more than eliteAdoptFactor. Because climbers share no
// mutable state and every exchange decision uses only round-end data, the
// final result is bit-identical for a fixed seed no matter how many cores
// (GOMAXPROCS) run the goroutines.

// eliteAdoptFactor is the relative slack before a lagging restart abandons
// its own trajectory for the elite's. Keeping it above 1 preserves diversity:
// only clearly-losing restarts convert into intensification around the
// current best.
const eliteAdoptFactor = 1.05

// searchMetrics is the registry view of one Anneal call, flushed at each
// round's exchange (never from the hot loop, so the search result and its
// determinism are unaffected by telemetry).
type searchMetrics struct {
	candidates *telemetry.Counter
	accepts    *telemetry.Counter
	rounds     *telemetry.Counter
	adoptions  *telemetry.Counter
	restarts   *telemetry.Gauge
	bestCost   *telemetry.Gauge
	perSteps   []*telemetry.Gauge
	perBest    []*telemetry.Gauge

	// last-flushed totals, for delta accounting into monotonic counters
	lastExamined, lastAccepts int
}

func newSearchMetrics(reg *telemetry.Registry, restarts int) *searchMetrics {
	m := &searchMetrics{
		candidates: reg.Counter("search_candidates_total"),
		accepts:    reg.Counter("search_accepts_total"),
		rounds:     reg.Counter("search_exchange_rounds_total"),
		adoptions:  reg.Counter("search_elite_adoptions_total"),
		restarts:   reg.Gauge("search_restarts"),
		bestCost:   reg.Gauge("search_best_cost_seconds"),
		perSteps:   make([]*telemetry.Gauge, restarts),
		perBest:    make([]*telemetry.Gauge, restarts),
	}
	for r := 0; r < restarts; r++ {
		rs := strconv.Itoa(r)
		m.perSteps[r] = reg.Gauge(telemetry.Label("search_restart_steps", "restart", rs))
		m.perBest[r] = reg.Gauge(telemetry.Label("search_restart_best_seconds", "restart", rs))
	}
	m.restarts.Set(float64(restarts))
	return m
}

// adoptionInc counts one elite adoption; no-op on nil metrics.
func (m *searchMetrics) adoptionInc() {
	if m == nil {
		return
	}
	m.adoptions.Inc()
}

// flush publishes the round's aggregate deltas, the portfolio's best cost and
// the per-restart gauges; no-op on nil metrics.
func (m *searchMetrics) flush(climbers []*climber, stepsDone int) {
	if m == nil {
		return
	}
	examined, accepts := 0, 0
	bestCost := climbers[0].bestCost
	for r, c := range climbers {
		examined += c.examined
		accepts += c.accepts
		bestCost = min(bestCost, c.bestCost)
		m.perSteps[r].Set(float64(stepsDone))
		m.perBest[r].Set(c.bestCost)
	}
	m.candidates.Add(int64(examined - m.lastExamined))
	m.accepts.Add(int64(accepts - m.lastAccepts))
	m.lastExamined, m.lastAccepts = examined, accepts
	m.rounds.Inc()
	m.bestCost.Set(bestCost)
}

// sliceSteps is how many steps a restart climbs between yields of its core
// (climber.run). A round is one goroutine per restart; the yields let the Go
// scheduler wrap three restarts around two cores within the round
// (McNaughton's wrap-around: 1.5 rounds of work per core, not 2), which its
// ≈ 10 ms preemption alone would not do for a sub-millisecond round.
const sliceSteps = 64

// runPortfolio drives all restarts to completion in rounds of at most
// exchangeEvery steps per restart: one goroutine per restart, joined before
// the exchange. A climber runs on one goroutine at a time and an exchange
// reads only round-end state, so the result does not depend on how the
// scheduler spreads the goroutines over cores.
func runPortfolio(climbers []*climber, opts AnnealOptions) {
	var metrics *searchMetrics
	if opts.Telemetry != nil {
		metrics = newSearchMetrics(opts.Telemetry, len(climbers))
	}
	steps := opts.steps()
	for done := 0; done < steps; {
		round := min(exchangeEvery, steps-done)
		var wg sync.WaitGroup
		for _, c := range climbers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(round)
			}()
		}
		wg.Wait()
		done += round
		exchange(climbers, metrics, done, steps)
	}
}

// exchange is the round-end synchronisation once every restart has climbed
// done of its steps: deterministic elite selection and adoption (none after
// the last round), then the telemetry flush.
func exchange(climbers []*climber, metrics *searchMetrics, done, steps int) {
	elite := 0
	for r, c := range climbers {
		if c.cost < climbers[elite].cost {
			elite = r
		}
	}
	if done < steps && len(climbers) > 1 {
		es, ec := climbers[elite].s, climbers[elite].cost
		for r, c := range climbers {
			if r != elite && c.cost > ec*eliteAdoptFactor {
				c.adopt(es, ec)
				metrics.adoptionInc()
			}
		}
	}
	metrics.flush(climbers, done)
}

// newPortfolio seeds one climber per restart with its own RNG stream. A
// schedule may grow to two stages more than the seed.
func newPortfolio(pd *predict.Predictor, seedSched *sched.Schedule, seedCost float64, opts AnnealOptions, prop *proposer) []*climber {
	maxStages := seedSched.NumStages() + 2
	climbers := make([]*climber, opts.Restarts)
	for r := range climbers {
		rng := stats.NewRNG(opts.Seed + uint64(r)*0x9e3779b97f4a7c15)
		climbers[r] = newClimber(pd, seedSched, seedCost, rng, maxStages, prop, opts.BatchSize)
	}
	return climbers
}
