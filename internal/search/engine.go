package search

import (
	"math"
	"math/bits"
	"runtime"
	"slices"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// The incremental search engine. The seed implementation paid a full
// Schedule.Clone, a from-scratch Eq. 3 recurrence, and a from-scratch
// critical-path pass for every mutant. Here a single working schedule is
// mutated in place with apply/undo deltas. Both engines follow one protocol —
// Touch the edited stages, evaluate, then Commit or Reject — and resume from
// the first stage the candidate touched against the accepted schedule's
// levels: the cost from predict.Evaluator's completion times, the Eq. 3
// verdict — for the move kinds and prices that leave it open (climber.score)
// — from mat.Closure's knowledge.

// mutation kinds mirror the seed implementation's move set.
const (
	mutRemove = iota
	mutAdd
	mutMove
	mutAppend
)

// mutation is one reversible signal-level edit of the working schedule.
type mutation struct {
	kind  int
	k, dk int // stage and, for moves, destination stage
	i, j  int // signal endpoints
	// dkHad records whether the move destination already carried the signal,
	// which turns the move into a plain removal and changes its inverse.
	dkHad bool
}

// climber is one restart's hill-climbing state. Climbers share nothing
// mutable, which is what makes the portfolio's result independent of how
// the scheduler spreads restarts over cores.
type climber struct {
	pd        *predict.Predictor
	rng       *stats.RNG
	s         *sched.Schedule
	know      *mat.Closure // Eq. 3 levels of the accepted schedule
	ev        *predict.Evaluator
	cost      float64
	maxStages int
	// prop, when non-nil, biases endpoint proposals by cluster structure.
	prop *proposer
	// batch above 1 turns each move into a best-of-batch selection.
	batch    int
	examined int
	accepts  int // mutations kept (cost did not worsen)
	// best tracks the cheapest state seen during the climb — not just the
	// end-of-restart state — so a plateau walk can never discard it. It is
	// replaced, never written: until the climb improves on the seed it is
	// the caller's seed itself.
	best     *sched.Schedule
	bestCost float64
	// spare recycles the stage matrix of an undone append.
	spare *mat.Bool
}

func newClimber(pd *predict.Predictor, seedSched *sched.Schedule, seedCost float64, rng *stats.RNG, maxStages int, prop *proposer, batch int) *climber {
	return &climber{
		pd: pd, rng: rng, s: seedSched.Clone(),
		know:      mat.NewClosure(seedSched.P),
		ev:        predict.NewEvaluator(pd),
		cost:      seedCost,
		maxStages: maxStages,
		prop:      prop,
		batch:     batch,
		best:      seedSched,
		bestCost:  seedCost,
	}
}

// run advances the climb by the given number of mutation attempts, a batch
// at a time (one attempt when batch is at most 1), and yields its core after
// every sliceSteps of them. A round is one run call, so batches are cut only
// where the round ends.
func (c *climber) run(steps int) {
	yield := sliceSteps
	for n := 0; n < steps; {
		b := min(max(c.batch, 1), steps-n)
		c.stepBatch(b)
		n += b
		if n >= yield {
			runtime.Gosched()
			yield = n + sliceSteps
		}
	}
}

// accept keeps the applied candidate as the working state. Every candidate
// kept is a barrier, so it becomes the knowledge closure's base.
func (c *climber) accept(cost float64) {
	c.accepts++
	c.cost = cost
	c.know.Commit()
	c.ev.Commit()
	if cost < c.bestCost {
		c.bestCost = cost
		c.best = c.s.Clone()
	}
}

// examine applies m and returns the candidate's score.
func (c *climber) examine(m mutation) float64 {
	c.apply(m)
	c.examined++
	return c.score(m)
}

// score prices the applied candidate, running only the checks
// its kind leaves open. The working schedule is always a barrier and a
// candidate is kept only if it is a barrier costing at most c.cost, so:
//
//   - add / append: Eq. 3 is monotone in the signal set — a superset of a
//     barrier is a barrier — so only the price is in question. An accept
//     then marks the closure's base stale from the touched stage.
//   - move: priced first; a costlier move is rejected whatever its verdict,
//     so Eq. 3 runs only when the price would be accepted. A costlier
//     non-barrier then scores its real price rather than +Inf, which decides
//     identically: a batch it wins is a batch stepBatch does not apply.
//   - remove: can break the barrier and its price rarely rejects it, so
//     Eq. 3 runs first and the price only on a true verdict.
func (c *climber) score(m mutation) float64 {
	switch m.kind {
	case mutAdd, mutAppend:
		return c.ev.Cost(c.s)
	case mutMove:
		if cost := c.ev.Cost(c.s); cost > c.cost || c.know.Resume(c.s.Stages) {
			return cost
		}
		return math.Inf(1)
	default:
		if !c.know.Resume(c.s.Stages) {
			return math.Inf(1)
		}
		return c.ev.Cost(c.s)
	}
}

// stepBatch draws up to b candidate mutations against the same base state,
// scores each through the usual apply→score→undo delta protocol, and keeps
// the cheapest if it does not predict slower — a best-of-b move selection
// that sharpens every accepted step, which is what makes cheap
// cluster-pruned proposals at large P pay off; at b = 1 it is the plain
// hill-climbing step. A candidate is undone only before the next draw, so
// all b draws see the identical base schedule and the last one is still
// applied when the batch ends: accepted where it stands when it wins,
// undone otherwise. An earlier winner is re-applied and runs no fresh
// verdict: its accept marks the closure's base stale from the touched
// stage, and the next verdict catches it up.
func (c *climber) stepBatch(b int) {
	var last, bestM mutation
	bestCost := math.Inf(1)
	found, applied, lastWins := false, false, false
	for n := 0; n < b; n++ {
		if applied {
			c.undo(last)
			applied = false
		}
		m, ok := c.draw()
		if !ok {
			continue
		}
		cost := c.examine(m)
		last, applied = m, true
		if lastWins = !found || cost < bestCost; lastWins {
			found, bestM, bestCost = true, m, cost
		}
	}
	switch {
	case applied && lastWins && bestCost <= c.cost:
		c.accept(bestCost)
	case found && bestCost <= c.cost:
		if applied {
			c.undo(last)
		}
		c.apply(bestM)
		c.accept(bestCost)
	case applied:
		c.undo(last)
	}
}

// draw picks the next mutation, mirroring the seed implementation's move
// distribution. ok is false when the drawn move does not apply.
func (c *climber) draw() (mutation, bool) {
	stages := c.s.NumStages()
	if stages == 0 {
		return mutation{}, false
	}
	p := c.s.P
	switch c.rng.Intn(4) {
	case 0: // remove a random signal
		k := c.rng.Intn(stages)
		i := c.rng.Intn(p)
		j, ok := c.pickSignal(k, i)
		if !ok {
			return mutation{}, false
		}
		return mutation{kind: mutRemove, k: k, i: i, j: j}, true
	case 1: // add a random signal
		k := c.rng.Intn(stages)
		i, j := c.drawEndpoints(p)
		if i == j || c.s.Stages[k].At(i, j) {
			return mutation{}, false
		}
		return mutation{kind: mutAdd, k: k, i: i, j: j}, true
	case 2: // move a signal to a neighbouring stage
		k := c.rng.Intn(stages)
		i := c.rng.Intn(p)
		j, ok := c.pickSignal(k, i)
		if !ok {
			return mutation{}, false
		}
		dk := k + 1 - 2*c.rng.Intn(2)
		if dk < 0 || dk >= stages {
			return mutation{}, false
		}
		return mutation{kind: mutMove, k: k, dk: dk, i: i, j: j, dkHad: c.s.Stages[dk].At(i, j)}, true
	default: // append a fresh stage seeded with one signal
		if stages >= c.maxStages {
			return mutation{}, false
		}
		i, j := c.drawEndpoints(p)
		if i == j {
			return mutation{}, false
		}
		return mutation{kind: mutAppend, k: stages, i: i, j: j}, true
	}
}

// drawEndpoints proposes a signal pair — cluster-pruned when a proposer is
// configured, uniform otherwise.
func (c *climber) drawEndpoints(p int) (int, int) {
	if c.prop != nil {
		return c.prop.drawPair(c.rng, p)
	}
	return c.rng.Intn(p), c.rng.Intn(p)
}

// pickSignal returns a uniformly drawn set column of row i in stage k.
func (c *climber) pickSignal(k, i int) (int, bool) {
	words := c.s.Stages[k].RowWords(i)
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return 0, false
	}
	nth := c.rng.Intn(n)
	for w, word := range words {
		cnt := bits.OnesCount64(word)
		if nth >= cnt {
			nth -= cnt
			continue
		}
		for ; nth > 0; nth-- {
			word &= word - 1
		}
		return w*64 + bits.TrailingZeros64(word), true
	}
	return 0, false // unreachable
}

// apply performs the mutation on the working schedule, touching exactly the
// changed stages and rows in the closure and the evaluator.
func (c *climber) apply(m mutation) {
	switch m.kind {
	case mutRemove:
		c.s.Stages[m.k].Set(m.i, m.j, false)
	case mutAdd:
		c.s.Stages[m.k].Set(m.i, m.j, true)
	case mutMove:
		c.s.Stages[m.k].Set(m.i, m.j, false)
		c.s.Stages[m.dk].Set(m.i, m.j, true)
		if !m.dkHad {
			c.know.Touch(m.dk)
			c.ev.Touch(c.s, m.dk, m.i)
		}
	case mutAppend:
		st := c.spare
		c.spare = nil
		if st == nil {
			st = mat.NewBool(c.s.P)
		}
		st.Set(m.i, m.j, true)
		c.s.AddStage(st)
	}
	c.know.Touch(m.k)
	c.ev.Touch(c.s, m.k, m.i)
}

// undo reverses apply exactly. Neither the closure's nor the evaluator's base
// levels were written for the candidate; rejecting restores the evaluator's
// repriced rows.
func (c *climber) undo(m mutation) {
	c.know.Reject()
	c.ev.Reject()
	switch m.kind {
	case mutRemove:
		c.s.Stages[m.k].Set(m.i, m.j, true)
	case mutAdd:
		c.s.Stages[m.k].Set(m.i, m.j, false)
	case mutMove:
		c.s.Stages[m.k].Set(m.i, m.j, true)
		if !m.dkHad {
			c.s.Stages[m.dk].Set(m.i, m.j, false)
		}
	case mutAppend:
		st := c.s.Stages[m.k]
		st.Set(m.i, m.j, false)
		c.spare = st
		c.s.Stages = c.s.Stages[:m.k]
	}
}

// adopt replaces the climber's working state with the elite schedule. The
// climb continues from there with the climber's own RNG stream, so adoption
// decisions — taken at deterministic round boundaries — keep the whole
// portfolio reproducible.
func (c *climber) adopt(elite *sched.Schedule, cost float64) {
	c.s = elite.Clone()
	c.know.Touch(0)
	c.know.Commit()
	c.ev = predict.NewEvaluator(c.pd)
	c.cost = cost
	if cost < c.bestCost {
		c.bestCost = cost
		c.best = c.s.Clone()
	}
}

// finalize returns the restart's cheapest schedule with no-op stages
// eliminated, re-scored from scratch; a schedule without one is returned as
// it is, uncopied.
func (c *climber) finalize() (*sched.Schedule, float64) {
	if !slices.ContainsFunc(c.best.Stages, (*mat.Bool).IsZero) {
		return c.best, c.bestCost
	}
	if dropped := c.best.DropEmptyStages(); dropped.IsBarrier() {
		if dc := c.pd.Cost(dropped); dc <= c.bestCost {
			return dropped, dc
		}
	}
	return c.best, c.bestCost
}
