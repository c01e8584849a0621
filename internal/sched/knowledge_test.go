package sched

import (
	"fmt"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/stats"
)

// The knowledge cache is checked against one reference: Schedule.Knowledge,
// the from-scratch row-wise recurrence. Every scenario below is a function of
// the rank count and runs at the word-boundary sizes of the cache's row
// bitsets. The table is split by row width because that is the one
// representation boundary inside the cache; the TestKnowledgeCache* entry
// points cover one-word rows and the TestFrontierCache* entry points, which
// keep their pre-merge names, cover multi-word rows.
var (
	oneWordSizes   = []int{1, 2, 3, 8, 9, 31, 32, 33, 63, 64}
	multiWordSizes = []int{65, 130}
)

func forSizes(t *testing.T, sizes []int, scenario func(t *testing.T, p int)) {
	for _, p := range sizes {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) { scenario(t, p) })
	}
}

// knowledgeGenerators are the schedule builders the scenarios start from; the
// fuzz target carries one seed corpus entry per generator.
var knowledgeGenerators = []func(int) *Schedule{
	Linear, Dissemination, Tree, RecursiveDoubling, Ring, SymmetricDissemination,
	func(p int) *Schedule { return kAryTree(p, 3) },
}

// scratchVerdict is Eq. 3 read off the reference matrices ks of a p-rank
// schedule: the last one is all-set (a lone rank needs no stage at all).
func scratchVerdict(p int, ks []*mat.Bool) bool {
	if len(ks) == 0 {
		return p == 1
	}
	return ks[len(ks)-1].Count() == p*p
}

// cachedAfter materialises the cache's knowledge after stage k — entry (i, j)
// set when rank j knows of rank i's arrival, as in Schedule.Knowledge — from
// the transposed tables a Barrier call has brought up to date. Stages past
// the saturation point carry fully-set knowledge; for those the saturated
// stage is materialised.
func cachedAfter(c *KnowledgeCache, k int) *mat.Bool {
	if c.p == 1 {
		return mat.Identity(1)
	}
	if c.sat >= 0 && k >= c.sat {
		k = c.sat
	}
	out := mat.NewBool(c.p)
	for j := 0; j < c.p; j++ {
		for i := 0; i < c.p; i++ {
			if c.tables[k][j][i/64]&(1<<(uint(i)%64)) != 0 {
				out.Set(i, j, true)
			}
		}
	}
	return out
}

// checkAgainstScratch requires the cached verdict and the cached matrix after
// every stage to equal the reference exactly. Knowledge is monotone, so the
// saturated matrix cachedAfter hands out past the saturation stage is what
// the reference holds there too.
func checkAgainstScratch(t *testing.T, c *KnowledgeCache, s *Schedule, ctx string) {
	t.Helper()
	ks := s.Knowledge()
	if got, want := c.Barrier(s), scratchVerdict(s.P, ks); got != want {
		t.Fatalf("%s: cached verdict %v, from scratch %v\n%s", ctx, got, want, s)
	}
	for k, want := range ks {
		if got := cachedAfter(c, k); !got.Equal(want) {
			t.Fatalf("%s: knowledge after stage %d diverges\ncached:\n%s\nfrom scratch:\n%s", ctx, k, got, want)
		}
	}
}

func noteToggle(c *KnowledgeCache, k, i, j int, was bool) {
	if was {
		c.NoteClear(k, i, j)
	} else {
		c.NoteSet(k, i, j)
	}
}

// knowledgeScript drives a working schedule and the cache tracking it through
// scripted mutations, reporting each one the way its kind prescribes.
type knowledgeScript struct {
	t *testing.T
	s *Schedule
	c *KnowledgeCache
}

const scriptMaxStages = 14

// apply performs one operation: op picks the kind, and x, y, z pick the stage
// and the signal's endpoints (reduced modulo the current shape, so any
// integers — RNG draws or fuzz bytes — form a valid script).
func (h *knowledgeScript) apply(op, x, y, z int) {
	s, c := h.s, h.c
	n := s.NumStages()
	switch op % 9 {
	case 0: // append an empty stage
		if n < scriptMaxStages {
			s.AddStage(mat.NewBool(s.P))
			c.Invalidate(n)
		}
		return
	case 1: // truncate the last stage (models an undone append)
		if n > 1 {
			s.Stages = s.Stages[:n-1]
			c.Invalidate(n - 1)
		}
		return
	}
	i, j := y%s.P, z%s.P
	if n == 0 || i == j {
		return
	}
	k := x % n
	was := s.Stages[k].At(i, j)
	s.Stages[k].Set(i, j, !was)
	switch op % 9 {
	case 2, 3: // coarse invalidation
		c.Invalidate(k)
	case 4: // evaluated rejection: note, evaluate, roll back, revert
		noteToggle(c, k, i, j, was)
		if got, want := c.Barrier(s), scratchVerdict(s.P, s.Knowledge()); got != want {
			h.t.Fatalf("inside rejection: cached verdict %v, from scratch %v\n%s", got, want, s)
		}
		c.Rollback()
		s.Stages[k].Set(i, j, was)
		noteToggle(c, k, i, j, !was)
	default: // exact single-bit note
		noteToggle(c, k, i, j, was)
	}
}

func matchesFromScratch(t *testing.T, p int) {
	for _, build := range knowledgeGenerators {
		s := build(p)
		checkAgainstScratch(t, NewKnowledgeCache(p), s, s.Name)
	}
}

func TestKnowledgeCacheMatchesFromScratch(t *testing.T) {
	forSizes(t, oneWordSizes, matchesFromScratch)
}
func TestFrontierCacheMatchesFromScratch(t *testing.T) {
	forSizes(t, multiWordSizes, matchesFromScratch)
}

// emptyScheduleVerdict: no stages synchronise a lone rank and nothing else.
func emptyScheduleVerdict(t *testing.T, p int) {
	if got := NewKnowledgeCache(p).Barrier(New("void", p)); got != (p == 1) {
		t.Fatalf("%d rank(s) with no stages: verdict %v", p, got)
	}
}

func TestKnowledgeCacheSingleRankAndEmpty(t *testing.T) {
	forSizes(t, oneWordSizes, emptyScheduleVerdict)
}
func TestFrontierCacheSingleRankAndEmpty(t *testing.T) {
	forSizes(t, multiWordSizes, emptyScheduleVerdict)
}

// randomMutations drives a working schedule through a long random script —
// toggling signals under every notification kind, appending and truncating
// stages, and evaluate-then-Rollback cycles the way the search engine's
// evaluated-rejection protocol runs them — and requires the verdict and every
// per-stage matrix of the reference. One operation in three goes unevaluated,
// so notes pile up across stages the way accepted adds, which skip Eq. 3,
// leave them. This is the correctness contract the incremental search engine rests
// on.
func randomMutations(t *testing.T, p int) {
	steps := 400
	if p > 33 {
		steps = 150
	}
	rng := stats.NewRNG(uint64(211 + p))
	h := &knowledgeScript{t: t, s: Dissemination(p), c: NewKnowledgeCache(p)}
	for step := 0; step < steps; step++ {
		h.apply(rng.Intn(9), rng.Intn(scriptMaxStages), rng.Intn(p), rng.Intn(p))
		if rng.Intn(3) > 0 {
			checkAgainstScratch(t, h.c, h.s, fmt.Sprintf("step %d", step))
		}
	}
	checkAgainstScratch(t, h.c, h.s, "end of script")
}

func TestKnowledgeCachePropertyRandomMutations(t *testing.T) {
	forSizes(t, oneWordSizes, randomMutations)
}
func TestFrontierCachePropertyRandomMutations(t *testing.T) {
	forSizes(t, multiWordSizes, randomMutations)
}

// FuzzKnowledgeCacheMatchesScratch lets the fuzzer write the script: byte 0
// picks P ≤ 12, byte 1 the generator, and every following four bytes one
// operation, evaluated unless its first byte has the top bit set. The
// comparison is the property test's.
func FuzzKnowledgeCacheMatchesScratch(f *testing.F) {
	script := []byte{
		5, 1, 4, 7, // exact notes
		4, 0, 2, 3, 4, 1, 0, 5, // evaluated rejections
		3, 2, 1, 0, 2, 1, 3, 2, // coarse invalidation
		0, 0, 0, 0, 6, 9, 1, 2, 1, 0, 0, 0, // append, edit the new stage, truncate
		0x85, 0, 1, 2, 0x86, 1, 2, 3, 4, 2, 0, 1, // unevaluated notes, then a rejection
	}
	for g := range knowledgeGenerators {
		f.Add(append([]byte{byte(4 + g), byte(g)}, script...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := 1 + int(data[0])%12
		s := knowledgeGenerators[int(data[1])%len(knowledgeGenerators)](p)
		h := &knowledgeScript{t: t, s: s, c: NewKnowledgeCache(p)}
		checkAgainstScratch(t, h.c, h.s, "seed")
		for n, ops := 0, data[2:]; len(ops) >= 4 && n < 64; n, ops = n+1, ops[4:] {
			h.apply(int(ops[0]&0x7f), int(ops[1]), int(ops[2]), int(ops[3]))
			if ops[0]&0x80 == 0 {
				checkAgainstScratch(t, h.c, h.s, fmt.Sprintf("op %d", n))
			}
		}
		checkAgainstScratch(t, h.c, h.s, "end of script")
	})
}

// deadWaveThenStaleSuffix pins a regression: when a change wave dies out
// inside the cached prefix while an appended stage is still awaiting its
// first recompute, Barrier must continue into the stale suffix instead of
// concluding from the prefix alone.
func deadWaveThenStaleSuffix(t *testing.T, p int) {
	if p < 3 {
		t.Skip("needs a rank the duplicated signal does not reach")
	}
	s := New("regress", p)
	for k := 0; k < 2; k++ {
		st := mat.NewBool(p)
		st.Set(0, 1, true)
		s.AddStage(st)
	}
	c := NewKnowledgeCache(p)
	if c.Barrier(s) {
		t.Fatalf("two signals cannot synchronise %d ranks", p)
	}
	// Append an all-to-all stage (not yet seen by the cache), then remove the
	// duplicated signal: its knowledge effect is absorbed by stage 0, so the
	// change wave dies at stage 1 — before the appended stage.
	full := mat.NewBool(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				full.Set(i, j, true)
			}
		}
	}
	s.AddStage(full)
	c.Invalidate(2)
	s.Stages[1].Set(0, 1, false)
	c.NoteClear(1, 0, 1)
	checkAgainstScratch(t, c, s, "after the dead wave")
}

func TestKnowledgeCacheDeadWaveThenStaleSuffix(t *testing.T) {
	forSizes(t, oneWordSizes, deadWaveThenStaleSuffix)
}
func TestFrontierCacheDeadWaveThenStaleSuffix(t *testing.T) {
	forSizes(t, multiWordSizes, deadWaveThenStaleSuffix)
}

// rollbackPreservesUnreplayedNotes drives the cache through the search
// engine's evaluated-rejection protocol: an earlier edit the schedule keeps
// is noted but never evaluated (an accepted add, which skips Eq. 3), then a
// candidate edit is noted, evaluated, and retired via Rollback plus an
// inverse note. The kept edit's note must survive the rollback, or the cache
// silently diverges from the schedule.
func rollbackPreservesUnreplayedNotes(t *testing.T, p int) {
	if p < 8 {
		t.Skip("needs dissemination's (0→2) and (1→5) signals")
	}
	s := Dissemination(p)
	c := NewKnowledgeCache(p)
	if !c.Barrier(s) {
		t.Fatalf("dissemination(%d) must synchronise", p)
	}
	// Kept edit, not yet replayed: dissemination stage 1 carries (0 → 2).
	s.Stages[1].Set(0, 2, false)
	c.NoteClear(1, 0, 2)
	// Candidate edit: stage 2 carries (1 → 5). Evaluate, then reject it the
	// way the engine does — Rollback first, inverse note after.
	s.Stages[2].Set(1, 5, false)
	c.NoteClear(2, 1, 5)
	c.Barrier(s)
	c.Rollback()
	s.Stages[2].Set(1, 5, true)
	c.NoteSet(2, 1, 5)
	checkAgainstScratch(t, c, s, "after the rejection")
}

func TestKnowledgeCacheRollbackPreservesUnreplayedNotes(t *testing.T) {
	forSizes(t, oneWordSizes, rollbackPreservesUnreplayedNotes)
}
func TestFrontierCacheRollbackPreservesUnreplayedNotes(t *testing.T) {
	forSizes(t, multiWordSizes, rollbackPreservesUnreplayedNotes)
}

func rejectsWrongRankCount(t *testing.T, p int) {
	defer func() {
		if recover() == nil {
			t.Fatalf("rank-count mismatch accepted")
		}
	}()
	NewKnowledgeCache(p).Barrier(Tree(p + 1))
}

func TestKnowledgeCacheRejectsWrongRankCount(t *testing.T) {
	forSizes(t, oneWordSizes, rejectsWrongRankCount)
}
func TestFrontierCacheRejectsWrongRankCount(t *testing.T) {
	forSizes(t, multiWordSizes, rejectsWrongRankCount)
}

// TestKnowledgeCacheJournalCompaction pins the commit-time journal cap: a
// journal left at a pathological high-water capacity must be reallocated
// small at the next Barrier's journal open, and a commit must drop the row
// pointers the refs held so rejected candidates' rows become collectable —
// the memory bound a multi-hour anneal depends on.
func TestKnowledgeCacheJournalCompaction(t *testing.T) {
	p := 64
	s := Dissemination(p)
	c := NewKnowledgeCache(p)
	toggle := func() {
		was := s.Stages[0].At(0, 1)
		s.Stages[0].Set(0, 1, !was)
		noteToggle(c, 0, 0, 1, was)
		c.Barrier(s)
	}
	c.Barrier(s)
	// Simulate a pathological mutation's high-water capacity, then hit a
	// commit point (the next Barrier's journal open).
	c.jRefs = make([]journalRef, 0, journalRetainRefs*2)
	toggle()
	if got := cap(c.jRefs); got > journalRetainRefs {
		t.Fatalf("journal refs retained %d, cap %d", got, journalRetainRefs)
	}
	// A change journals row pointers; the following no-change Barrier is a
	// commit point that must release them.
	toggle()
	c.Barrier(s)
	if len(c.jRefs) != 0 {
		t.Fatalf("no-change Barrier left %d journal refs", len(c.jRefs))
	}
	for _, ref := range c.jRefs[:cap(c.jRefs)] {
		if ref.old != nil {
			t.Fatalf("journal retains row pointers after commit")
		}
	}
}
