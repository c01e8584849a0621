// Package search explores the admissible space of barrier signal patterns
// beyond the paper's greedy construction — the generalisation §VII.B and
// §VIII leave as future work.
//
// Anneal runs a deterministic local search (hill climbing with restarts over
// signal-level mutations) that scales to realistic sizes and is seeded with
// the best classic algorithm or a composed hybrid. The package's tests keep a
// brute-force enumerator for P ≤ 3 as the floor no search result may beat.
package search

import (
	"fmt"
	"math"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// Result is a searched barrier and its predicted cost.
type Result struct {
	Schedule *sched.Schedule
	Cost     float64
	// Examined counts candidate schedules whose cost was evaluated.
	Examined int
}

// AnnealOptions configures the local search.
type AnnealOptions struct {
	// Seed drives mutation choices; identical seeds replay identical
	// searches at any GOMAXPROCS.
	Seed uint64
	// Restarts is the number of portfolio members (default 3). Each climbs
	// on its own goroutine, so up to Restarts cores work at once.
	Restarts int
	// Budget is the total number of mutation attempts across the whole
	// portfolio: each restart performs Budget/Restarts of them (at least
	// one). 0 selects 2000 per restart.
	Budget int
	// Clusters, when it holds at least two entries, prunes the mutation
	// space by locality structure: each entry lists the ranks of one cluster
	// (its first rank acting as leader), and together the entries must
	// partition 0..P-1. Signal endpoints for add/append proposals are then
	// drawn mostly intra-cluster, sometimes leader-to-leader, and only
	// rarely from the full P² space — the shape good hierarchical schedules
	// take, and the difference between a step budget that explores and one
	// that drowns at large P. Invalid partitions make Anneal return an
	// error. Determinism per Seed is preserved at any GOMAXPROCS.
	Clusters [][]int
	// BatchSize, when above 1, evaluates mutations in best-of-BatchSize
	// batches inside each climber: all candidates of a batch are scored
	// against the same base state and only the cheapest is kept (when it
	// does not predict slower). Batches draw from the climber's own RNG
	// stream, so the result stays independent of GOMAXPROCS.
	BatchSize int
	// Telemetry, when non-nil, receives the search's runtime metrics:
	// candidate throughput, accepted moves, exchange rounds, elite adoptions, and per-restart progress gauges.
	// Metrics are flushed at each round's exchange, so enabling them never
	// perturbs the hot mutation loop or the deterministic result.
	Telemetry *telemetry.Registry
}

// exchangeEvery is the number of steps each restart climbs between
// cross-restart elite exchanges. Exchanges happen when every restart has
// finished the round, so how the restarts are scheduled never changes them.
const exchangeEvery = 500

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	if o.Budget <= 0 {
		o.Budget = 2000 * o.Restarts
	}
	return o
}

// steps is the number of mutation attempts each restart performs.
func (o AnnealOptions) steps() int { return max(o.Budget/o.Restarts, 1) }

// Anneal performs hill climbing from the given seed schedule: random
// signal-level mutations (add a signal, remove a signal, move a signal to
// another stage, append a stage) are kept when the mutant still synchronises
// and does not predict slower. Restarts run as a deterministic parallel
// portfolio with periodic elite exchange; each restart mutates a single
// working schedule in place, prices candidates with a predict.Evaluator
// resumed from the accepted schedule's completion times at the candidate's
// first touched stage, and runs Eq. 3 — by resuming a mat.Closure from the
// accepted schedule's levels at the same stage — only for the move kinds that
// can break a barrier and only when the verdict can change the decision
// (climber.score). The cheapest schedule
// observed anywhere in the portfolio is returned, after one from-scratch
// re-verification of its Eq. 3 verdict and its cost; a mismatch is an error.
func Anneal(pd *predict.Predictor, seedSched *sched.Schedule, opts AnnealOptions) (*Result, error) {
	if !seedSched.IsBarrier() {
		return nil, fmt.Errorf("search: seed %q is not a barrier", seedSched.Name)
	}
	if seedSched.P != pd.Prof.P {
		return nil, fmt.Errorf("search: seed over %d ranks vs %d-rank profile", seedSched.P, pd.Prof.P)
	}
	opts = opts.withDefaults()
	prop, err := newProposer(seedSched.P, opts.Clusters)
	if err != nil {
		return nil, err
	}

	seedCost := pd.Cost(seedSched)
	climbers := newPortfolio(pd, seedSched, seedCost, opts, prop)
	runPortfolio(climbers, opts)

	best := &Result{Schedule: seedSched, Cost: seedCost}
	for _, c := range climbers {
		best.Examined += c.examined
		if s, cost := c.finalize(); cost < best.Cost {
			best.Schedule, best.Cost = s, cost
		}
	}
	if best.Schedule == seedSched {
		best.Schedule = seedSched.Clone()
	}
	best.Schedule.Name = fmt.Sprintf("annealed(%s)", seedSched.Name)
	// The climb elides every check its move kind makes redundant, so the one
	// unconditional verification sits here, where the result leaves the
	// package: Eq. 3 and the price, both from scratch.
	barrier, scratch := best.Schedule.IsBarrier(), pd.Cost(best.Schedule)
	if !barrier || math.Float64bits(scratch) != math.Float64bits(best.Cost) {
		return nil, fmt.Errorf("search: result %q fails re-verification: barrier %v, tracked cost %g, from scratch %g",
			best.Schedule.Name, barrier, best.Cost, scratch)
	}
	return best, nil
}
