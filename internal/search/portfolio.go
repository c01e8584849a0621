package search

import (
	"runtime"
	"strconv"
	"sync"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
	"topobarrier/internal/telemetry"
)

// The parallel restart portfolio. Restarts are independent climbers advanced
// in lock-step rounds of exchangeEvery steps; a round is cut into slices that
// a pool of workers shares. At each round's end the elite (cheapest current
// state, ties to the lowest restart index) is picked and its schedule handed
// to climbers that have fallen behind by more than eliteAdoptFactor. Because
// climbers share no mutable state and every exchange decision uses only
// round-end data, the final result is bit-identical for a fixed seed no
// matter how many workers execute the slices.

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

// sliceSteps is how many steps of one restart a worker runs between looks
// at the pool's queue. Rounds of exchangeEvery steps are cut into slices so
// that three restarts on two workers keep both busy (McNaughton's
// wrap-around: 1.5 rounds of work per worker, not 2).
const sliceSteps = 64

// pool runs one Anneal call's portfolio on a fixed set of workers. A worker
// takes a restart that is not running and advances it slice by slice. It
// hands the restart back to the queue when a waiting one trails it by two
// slices: a restart moves between cores a few times per round, not once per
// slice, and its state stays in one core's cache. The worker that finishes a
// round's last slice makes the exchange and opens the next round. A climber
// never runs on two workers at once and an exchange reads only round-end
// state, so the result does not depend on which worker ran which slice.
type pool struct {
	mu       sync.Mutex
	wake     sync.Cond // a round opened, or the portfolio finished
	climbers []*climber
	metrics  *searchMetrics
	slice    int   // steps per slice, a multiple of the batch size
	steps    int   // steps per restart in all
	left     int   // steps per restart not yet in an opened round
	round    int   // steps per restart in the current round
	ran      []int // steps each restart has run of the current round
	ready    []int // restarts waiting for a worker
	finished int   // restarts that have run the whole current round
	over     bool
}

// runPortfolio drives all restarts to completion on opts.Workers workers,
// the caller being one of them.
func runPortfolio(climbers []*climber, opts AnnealOptions) {
	p := &pool{
		climbers: climbers,
		slice:    sliceSteps,
		steps:    opts.steps(),
		left:     opts.steps(),
		ran:      make([]int, len(climbers)),
		ready:    make([]int, 0, len(climbers)),
	}
	p.wake.L = &p.mu
	// A slice ends on a batch boundary, so climber.run cuts its batches
	// where a whole round would have.
	if b := opts.BatchSize; b > 1 {
		p.slice = (sliceSteps + b - 1) / b * b
	}
	if opts.Telemetry != nil {
		p.metrics = newSearchMetrics(opts.Telemetry, len(climbers))
	}
	p.open()
	var wg sync.WaitGroup
	for w := 1; w < min(opts.Workers, len(climbers)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
}

// work runs slices until the portfolio is finished.
func (p *pool) work() {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, last := -1, -1 // the restart in hand, and the one this worker ran last
	for {
		if r < 0 {
			for len(p.ready) == 0 && !p.over {
				p.wake.Wait()
			}
			if p.over {
				return
			}
			r = p.take(last)
		}
		n := min(p.slice, p.round-p.ran[r])
		p.mu.Unlock()
		p.climbers[r].run(n)
		p.mu.Lock()
		if p.ran[r] += n; p.ran[r] < p.round {
			if len(p.ready) > 0 && p.ran[r]-p.ran[p.ready[p.trailing(-1)]] >= 2*p.slice {
				p.ready = append(p.ready, r)
				r = p.take(-1)
			}
			continue
		}
		r, last = -1, r
		if p.finished++; p.finished == len(p.climbers) {
			p.exchange()
			p.open()
			p.wake.Broadcast()
		}
	}
}

// trailing returns the queue index of the waiting restart that has run the
// fewest steps of the round, ties going to prefer.
func (p *pool) trailing(prefer int) int {
	t := 0
	for i, r := range p.ready {
		if d := p.ran[r] - p.ran[p.ready[t]]; d < 0 || d == 0 && r == prefer {
			t = i
		}
	}
	return t
}

// take removes the trailing waiting restart from the queue and returns it.
func (p *pool) take(prefer int) int {
	i := p.trailing(prefer)
	r := p.ready[i]
	p.ready = append(p.ready[:i], p.ready[i+1:]...)
	return r
}

// open starts the next round of at most exchangeEvery steps per restart, or
// marks the portfolio finished.
func (p *pool) open() {
	if p.left == 0 {
		p.over = true
		return
	}
	p.round = min(exchangeEvery, p.left)
	p.left -= p.round
	p.finished = 0
	p.ready = p.ready[:0]
	for r := range p.climbers {
		p.ran[r] = 0
		p.ready = append(p.ready, r)
	}
}

// exchange is the round-end synchronisation: deterministic elite selection
// and adoption, then the telemetry flush.
func (p *pool) exchange() {
	climbers := p.climbers
	elite := 0
	for r, c := range climbers {
		if c.cost < climbers[elite].cost {
			elite = r
		}
	}
	if p.left > 0 && len(climbers) > 1 {
		es, ec := climbers[elite].s, climbers[elite].cost
		for r, c := range climbers {
			if r != elite && c.cost > ec*eliteAdoptFactor {
				c.adopt(es, ec)
				p.metrics.adoptionInc()
			}
		}
	}
	p.metrics.flush(climbers, p.steps-p.left)
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

// defaultWorkers returns the portfolio's worker-count default.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
