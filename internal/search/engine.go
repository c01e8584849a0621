package search

import (
	"math"
	"math/bits"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// The incremental search engine. The seed implementation paid a full
// Schedule.Clone, a from-scratch Eq. 3 recurrence, and a from-scratch
// critical-path pass for every mutant. Here a single working schedule is
// mutated in place with apply/undo deltas; the cost comes from an incremental
// predict.Evaluator, the Eq. 3 verdict — for the move kinds and prices that
// leave it open (climber.score) — from a prefix-reusable
// sched.KnowledgeCache, and revisited candidates are answered from a
// transposition table keyed by an incrementally maintained Zobrist hash —
// they are never re-scored at all.

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

// zobrist holds the random toggle keys of the schedule hash: one 64-bit key
// per (stage, from, to) signal slot plus one per possible stage count, so
// schedules differing only in trailing empty stages — which price differently
// under a per-stage overhead — hash apart. Keys are derived from a fixed
// seed, shared read-only by all restarts, and independent of the search seed
// so identical schedules hash identically across runs.
type zobrist struct {
	p, maxStages int
	keys         []uint64 // maxStages·p·p toggle keys; nil above the budget
	stageCount   []uint64 // maxStages+1 stage-count keys
}

// zobristTableBudget bounds the materialised key table. Below it the keys are
// precomputed exactly as they always were (bit-compatible hashes). Above it —
// large P, where maxStages·P² keys would cost hundreds of megabytes per
// portfolio — each key is derived on demand from its slot index by a
// SplitMix64 finaliser. Both schemes are fixed pure functions of
// (stage, from, to), so hashing stays deterministic across runs and workers.
const zobristTableBudget = 1 << 22

func newZobrist(p, maxStages int) *zobrist {
	rng := stats.NewRNG(0x746f706f62617272) // "topobarr", fixed
	z := &zobrist{
		p: p, maxStages: maxStages,
		stageCount: make([]uint64, maxStages+1),
	}
	if n := maxStages * p * p; n <= zobristTableBudget {
		z.keys = make([]uint64, n)
		for i := range z.keys {
			z.keys[i] = rng.Uint64()
		}
	}
	for i := range z.stageCount {
		z.stageCount[i] = rng.Uint64()
	}
	return z
}

func (z *zobrist) key(k, i, j int) uint64 {
	idx := (k*z.p+i)*z.p + j
	if z.keys != nil {
		return z.keys[idx]
	}
	return splitmix64(0x746f706f62617272 + uint64(idx)*0x9e3779b97f4a7c15)
}

// splitmix64 is the SplitMix64 output finaliser — a fixed 64-bit bijection
// with full avalanche, which is all a Zobrist key needs.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashOf computes a schedule's hash from scratch (adoption and seeding; the
// climb itself maintains it incrementally).
func (z *zobrist) hashOf(s *sched.Schedule) uint64 {
	h := z.stageCount[s.NumStages()]
	for k, st := range s.Stages {
		for i := 0; i < s.P; i++ {
			for w, word := range st.RowWords(i) {
				for word != 0 {
					j := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					h ^= z.key(k, i, j)
				}
			}
		}
	}
	return h
}

// transpositionCap bounds the per-restart cache; past it, new candidates are
// still evaluated, just not remembered. The cap keeps worst-case memory
// deterministic and small relative to typical budgets.
const transpositionCap = 1 << 20

// climber is one restart's hill-climbing state. Climbers share nothing
// mutable, which is what makes the portfolio's result independent of how
// restarts are scheduled onto workers.
type climber struct {
	pd        *predict.Predictor
	z         *zobrist
	rng       *stats.RNG
	s         *sched.Schedule
	kc        *sched.KnowledgeCache
	ev        *predict.Evaluator
	hash      uint64
	cost      float64
	table     map[uint64]float64 // hash -> cost, +Inf for non-barriers
	maxStages int
	// prop, when non-nil, biases endpoint proposals by cluster structure.
	prop *proposer
	// batch above 1 turns each move into a best-of-batch selection.
	batch    int
	examined int
	ttHits   int // candidates answered from the transposition table
	accepts  int // mutations kept (cost did not worsen)
	// best tracks the cheapest state seen during the climb — not just the
	// end-of-restart state — so a plateau walk can never discard it.
	best     *sched.Schedule
	bestCost float64
	// spare recycles the stage matrix of an undone append.
	spare *mat.Bool
}

func newClimber(pd *predict.Predictor, z *zobrist, seedSched *sched.Schedule, seedCost float64, rng *stats.RNG, maxStages int, prop *proposer, batch int) *climber {
	s := seedSched.Clone()
	h := z.hashOf(s)
	c := &climber{
		pd: pd, z: z, rng: rng, s: s,
		kc:        sched.NewKnowledgeCache(s.P),
		ev:        predict.NewEvaluator(pd),
		hash:      h,
		cost:      seedCost,
		table:     map[uint64]float64{h: seedCost},
		maxStages: maxStages,
		prop:      prop,
		batch:     batch,
		best:      seedSched.Clone(),
		bestCost:  seedCost,
	}
	return c
}

// run advances the climb by the given number of mutation attempts.
func (c *climber) run(steps int) {
	if c.batch > 1 {
		for n := 0; n < steps; n += c.batch {
			b := c.batch
			if steps-n < b {
				b = steps - n
			}
			c.stepBatch(b)
		}
		return
	}
	for n := 0; n < steps; n++ {
		c.step()
	}
}

func (c *climber) step() {
	m, ok := c.draw()
	if !ok {
		return
	}
	if cost, verified := c.examine(m); cost <= c.cost {
		c.accept(cost)
	} else {
		c.undo(m, verified)
	}
}

// accept keeps the applied candidate as the working state.
func (c *climber) accept(cost float64) {
	c.accepts++
	c.cost = cost
	if cost < c.bestCost {
		c.bestCost = cost
		c.best = c.s.Clone()
	}
}

// examine applies m and returns the candidate's score — from the
// transposition table when the state has been seen, from score otherwise —
// and whether Eq. 3 ran, which is what undo needs to know.
func (c *climber) examine(m mutation) (cost float64, verified bool) {
	c.apply(m)
	c.examined++
	cost, hit := c.table[c.hash]
	if hit {
		c.ttHits++
		return cost, false
	}
	cost, verified = c.score(m)
	if len(c.table) < transpositionCap {
		c.table[c.hash] = cost
	}
	return cost, verified
}

// score prices the applied, never-seen candidate, running only the checks
// its kind leaves open. The working schedule is always a barrier and a
// candidate is kept only if it is a barrier costing at most c.cost, so:
//
//   - add / append: Eq. 3 is monotone in the signal set — a superset of a
//     barrier is a barrier — so only the price is in question. The NoteSet
//     (or stage invalidation) stays armed in the knowledge cache for the next
//     candidate that does run Eq. 3, as on a transposition-answered accept.
//   - move: priced first; a costlier move is rejected whatever its verdict,
//     so Eq. 3 runs only when the price would be accepted. The table entry
//     of a costlier non-barrier is then its real price rather than +Inf,
//     which decides identically: c.cost never rises (accepts are ≤, adoptions
//     strictly cheaper), so the entry exceeds c.cost on every revisit, and a
//     batch it wins is a batch stepBatch does not apply.
//   - remove: can break the barrier and its price rarely rejects it, so
//     Eq. 3 runs first and the price only on a true verdict.
func (c *climber) score(m mutation) (cost float64, verified bool) {
	switch m.kind {
	case mutAdd, mutAppend:
		return c.ev.Cost(c.s), false
	case mutMove:
		if cost = c.ev.Cost(c.s); cost > c.cost {
			return cost, false
		}
		if !c.kc.Barrier(c.s) {
			cost = math.Inf(1)
		}
		return cost, true
	default:
		if !c.kc.Barrier(c.s) {
			return math.Inf(1), true
		}
		return c.ev.Cost(c.s), true
	}
}

// stepBatch draws up to b candidate mutations against the same base state,
// scores each through the usual apply→score→undo delta protocol, then
// re-applies the cheapest if it does not predict slower — a best-of-b move
// selection that sharpens every accepted step, which is what makes cheap
// cluster-pruned proposals at large P pay off. Every candidate is undone
// before the next is drawn, so all b draws see the identical base schedule.
// The winning re-apply needs no fresh Barrier: its change notes stay armed in
// the knowledge cache, exactly as for transposition-answered accepts, and the
// next evaluated candidate replays them.
func (c *climber) stepBatch(b int) {
	var bestM mutation
	bestCost := math.Inf(1)
	found := false
	for n := 0; n < b; n++ {
		m, ok := c.draw()
		if !ok {
			continue
		}
		cost, verified := c.examine(m)
		if !found || cost < bestCost {
			found, bestM, bestCost = true, m, cost
		}
		c.undo(m, verified)
	}
	if found && bestCost <= c.cost {
		c.apply(bestM)
		c.accept(bestCost)
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

// apply performs the mutation on the working schedule, updating the hash and
// invalidating exactly the touched knowledge suffix and cost rows.
func (c *climber) apply(m mutation) {
	switch m.kind {
	case mutRemove:
		c.s.Stages[m.k].Set(m.i, m.j, false)
		c.ev.Touch(m.k, m.i)
		c.kc.NoteClear(m.k, m.i, m.j)
		c.hash ^= c.z.key(m.k, m.i, m.j)
	case mutAdd:
		c.s.Stages[m.k].Set(m.i, m.j, true)
		c.ev.Touch(m.k, m.i)
		c.kc.NoteSet(m.k, m.i, m.j)
		c.hash ^= c.z.key(m.k, m.i, m.j)
	case mutMove:
		c.s.Stages[m.k].Set(m.i, m.j, false)
		c.s.Stages[m.dk].Set(m.i, m.j, true)
		c.ev.Touch(m.k, m.i)
		c.ev.Touch(m.dk, m.i)
		c.kc.NoteClear(m.k, m.i, m.j)
		if !m.dkHad {
			c.kc.NoteSet(m.dk, m.i, m.j)
		}
		c.hash ^= c.z.key(m.k, m.i, m.j)
		if !m.dkHad {
			c.hash ^= c.z.key(m.dk, m.i, m.j)
		}
	case mutAppend:
		st := c.spare
		c.spare = nil
		if st == nil {
			st = mat.NewBool(c.s.P)
		}
		st.Set(m.i, m.j, true)
		c.s.AddStage(st)
		c.kc.Invalidate(m.k)
		c.hash ^= c.z.stageCount[m.k] ^ c.z.stageCount[m.k+1] ^ c.z.key(m.k, m.i, m.j)
	}
}

// undo reverses apply exactly. verified says whether Eq. 3 ran on the
// candidate (score called Barrier): then the knowledge cache holds the
// candidate's matrices and is first rolled back from its undo journal in one
// shot — which also re-arms the pending notes that Barrier consumed. The
// undo's own change notes, issued after, cancel the apply's (restored or
// never-consumed) notes, so the cache ends exactly where it was before the
// candidate: notes from earlier accepts that skipped Eq. 3 stay armed, the
// rejected edit leaves no trace, and no second change wave ever runs.
func (c *climber) undo(m mutation, verified bool) {
	if verified {
		c.kc.Rollback()
	}
	switch m.kind {
	case mutRemove:
		c.s.Stages[m.k].Set(m.i, m.j, true)
		c.ev.Touch(m.k, m.i)
		c.kc.NoteSet(m.k, m.i, m.j)
		c.hash ^= c.z.key(m.k, m.i, m.j)
	case mutAdd:
		c.s.Stages[m.k].Set(m.i, m.j, false)
		c.ev.Touch(m.k, m.i)
		c.kc.NoteClear(m.k, m.i, m.j)
		c.hash ^= c.z.key(m.k, m.i, m.j)
	case mutMove:
		c.s.Stages[m.k].Set(m.i, m.j, true)
		if !m.dkHad {
			c.s.Stages[m.dk].Set(m.i, m.j, false)
			c.hash ^= c.z.key(m.dk, m.i, m.j)
			c.kc.NoteClear(m.dk, m.i, m.j)
		}
		c.ev.Touch(m.k, m.i)
		c.ev.Touch(m.dk, m.i)
		c.kc.NoteSet(m.k, m.i, m.j)
		c.hash ^= c.z.key(m.k, m.i, m.j)
	case mutAppend:
		st := c.s.Stages[m.k]
		st.Set(m.i, m.j, false)
		c.spare = st
		c.s.Stages = c.s.Stages[:m.k]
		c.ev.Truncate(m.k)
		c.kc.Invalidate(m.k)
		c.hash ^= c.z.stageCount[m.k] ^ c.z.stageCount[m.k+1] ^ c.z.key(m.k, m.i, m.j)
	}
}

// adopt replaces the climber's working state with the elite schedule. The
// climb continues from there with the climber's own RNG stream, so adoption
// decisions — taken at deterministic round boundaries — keep the whole
// portfolio reproducible.
func (c *climber) adopt(elite *sched.Schedule, cost float64) {
	c.s = elite.Clone()
	c.kc.Invalidate(0)
	c.ev.Truncate(0)
	c.hash = c.z.hashOf(c.s)
	c.cost = cost
	if cost < c.bestCost {
		c.bestCost = cost
		c.best = c.s.Clone()
	}
}

// finalize returns the restart's cheapest schedule with no-op stages
// eliminated, re-scored from scratch.
func (c *climber) finalize() (*sched.Schedule, float64) {
	s, cost := c.best, c.bestCost
	dropped := c.best.DropEmptyStages()
	if dropped.NumStages() != c.best.NumStages() && dropped.IsBarrier() {
		if dc := c.pd.Cost(dropped); dc <= cost {
			s, cost = dropped, dc
		}
	}
	return s, cost
}
