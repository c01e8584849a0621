package sched

import (
	"fmt"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/stats"
)

// The search's Eq. 3 verdict is mat.Closure's resume path — Touch, Resume,
// Commit, Reject — over a schedule edited in place. It is checked against two
// references after every verdict: Closure.Run from scratch, and the row-wise
// Schedule.Knowledge. Every scenario is a function of the rank count and runs
// on both sides of the one-word row boundary: the TestKnowledgeCache* entry
// points cover one-word rows and the TestFrontierCache* entry points
// multi-word rows. Both keep the names they had when a separate incremental
// cache served the search.
var (
	oneWordSizes   = []int{1, 2, 3, 8, 9, 31, 32, 33, 63, 64}
	multiWordSizes = []int{65, 128, 129, 130}
)

func forSizes(t *testing.T, sizes []int, scenario func(t *testing.T, p int)) {
	for _, p := range sizes {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) { scenario(t, p) })
	}
}

// resumeGenerators are the schedules a script starts from; the fuzz target
// carries seed corpus entries for the first three. The arrival phases are not
// barriers, so a script from one resumes against a base that is not sound
// until its first commit.
var resumeGenerators = []func(int) *Schedule{
	Tree, Dissemination,
	func(p int) *Schedule { return New("empty", p) },
	Linear, Ring, RecursiveDoubling, SymmetricDissemination,
	TreeArrival, LinearArrival,
	func(p int) *Schedule { return kAryTree(p, 3) },
}

// checkResume requires c's resumed verdict on s to equal Run from scratch and
// the last matrix of Schedule.Knowledge being all-set.
func checkResume(t *testing.T, c *mat.Closure, s *Schedule, ctx string) bool {
	t.Helper()
	got := c.Resume(s.Stages)
	run := mat.NewClosure(s.P).Run(s.Stages, nil) >= 0
	ks := s.Knowledge()
	want := s.P == 1 || len(ks) > 0 && ks[len(ks)-1].Count() == s.P*s.P
	if got != run || got != want {
		t.Fatalf("%s: resumed verdict %v, Run %v, Knowledge %v\n%s", ctx, got, run, want, s)
	}
	return got
}

// resumeScript drives a working schedule, the accepted base it was edited
// from, and the closure tracking both through the climber's protocol.
type resumeScript struct {
	t       *testing.T
	s, base *Schedule
	c       *mat.Closure
}

const scriptMaxStages = 14

func newResumeScript(t *testing.T, s *Schedule) *resumeScript {
	return &resumeScript{t: t, s: s, base: s.Clone(), c: mat.NewClosure(s.P)}
}

// apply performs one operation: op picks the kind, and x, y, z pick the stage
// and the signal's endpoints (reduced modulo the current shape, so any
// integers — RNG draws or fuzz bytes — form a valid script).
func (h *resumeScript) apply(op, x, y, z int, ctx string) {
	s, c := h.s, h.c
	n := s.NumStages()
	switch op % 8 {
	case 0: // append an empty stage
		if n < scriptMaxStages {
			s.AddStage(mat.NewBool(s.P))
			c.Touch(n)
		}
	case 1: // cut the last stage
		if n > 0 {
			s.Stages = s.Stages[:n-1]
			c.Touch(n - 1)
		}
	case 5: // verdict
		checkResume(h.t, c, s, ctx)
	case 6: // commit, which the contract allows only for a barrier
		if s.IsBarrier() {
			c.Commit()
			h.base = s.Clone()
			return
		}
		fallthrough
	case 7: // reject: back to the base
		c.Reject()
		h.s = h.base.Clone()
	default: // toggle one signal
		i, j := y%s.P, z%s.P
		if n == 0 || i == j {
			return
		}
		k := x % n
		s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
		c.Touch(k)
	}
}

// matchesFromScratch resumes a fresh closure, and the same closure again
// after committing, on every generator.
func matchesFromScratch(t *testing.T, p int) {
	for _, build := range resumeGenerators {
		s := build(p)
		c := mat.NewClosure(p)
		if checkResume(t, c, s, s.Name) {
			c.Commit()
			checkResume(t, c, s, s.Name+" committed")
		}
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
	if got := mat.NewClosure(p).Resume(nil); got != (p == 1) {
		t.Fatalf("%d rank(s) with no stages: verdict %v", p, got)
	}
}

func TestKnowledgeCacheSingleRankAndEmpty(t *testing.T) {
	forSizes(t, oneWordSizes, emptyScheduleVerdict)
}
func TestFrontierCacheSingleRankAndEmpty(t *testing.T) {
	forSizes(t, multiWordSizes, emptyScheduleVerdict)
}

// randomMutations drives a long random script from dissemination — toggles,
// appends, cuts, verdicts, commits and rejects in any order, so commits with
// and without a verdict pile up stale base levels — and checks every
// verdict. This is the contract the search's climber rests on.
func randomMutations(t *testing.T, p int) {
	steps := 400
	if p > 33 {
		steps = 150
	}
	rng := stats.NewRNG(uint64(211 + p))
	h := newResumeScript(t, Dissemination(p))
	for step := 0; step < steps; step++ {
		h.apply(rng.Intn(8), rng.Intn(scriptMaxStages), rng.Intn(p), rng.Intn(p), fmt.Sprintf("step %d", step))
	}
	checkResume(t, h.c, h.s, "end of script")
}

func TestKnowledgeCachePropertyRandomMutations(t *testing.T) {
	forSizes(t, oneWordSizes, randomMutations)
}
func TestFrontierCachePropertyRandomMutations(t *testing.T) {
	forSizes(t, multiWordSizes, randomMutations)
}

// deadWaveThenStaleSuffix pins an edit whose effect dies out inside the
// base's current levels while a committed, appended stage has no current
// base level yet: the verdict must run into the stale suffix instead of
// concluding from the levels it has.
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
	c := mat.NewClosure(p)
	if checkResume(t, c, s, "two signals") {
		t.Fatalf("two signals cannot synchronise %d ranks", p)
	}
	// Append an all-to-all stage and commit it unverified, then remove the
	// duplicated signal, whose effect stage 0 already had.
	full := mat.NewBool(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				full.Set(i, j, true)
			}
		}
	}
	s.AddStage(full)
	c.Touch(2)
	c.Commit()
	s.Stages[1].Set(0, 1, false)
	c.Touch(1)
	checkResume(t, c, s, "after the dead wave")
}

func TestKnowledgeCacheDeadWaveThenStaleSuffix(t *testing.T) {
	forSizes(t, oneWordSizes, deadWaveThenStaleSuffix)
}
func TestFrontierCacheDeadWaveThenStaleSuffix(t *testing.T) {
	forSizes(t, multiWordSizes, deadWaveThenStaleSuffix)
}

// rollbackPreservesUnreplayedNotes drives the climber's rejection protocol
// over an unverified commit: an add the schedule keeps is committed without
// a verdict (adds skip Eq. 3), then a candidate edit is verified and
// rejected. The kept add must survive the rejection, or the closure silently
// diverges from the schedule.
func rollbackPreservesUnreplayedNotes(t *testing.T, p int) {
	if p < 8 {
		t.Skip("needs dissemination's stage-2 (1→5) signal")
	}
	s := Dissemination(p)
	c := mat.NewClosure(p)
	if !checkResume(t, c, s, "dissemination") {
		t.Fatalf("dissemination(%d) must synchronise", p)
	}
	c.Commit()
	// Kept edit: stage 1 also carries (1 → 5), committed unverified.
	s.Stages[1].Set(1, 5, true)
	c.Touch(1)
	c.Commit()
	// Candidate edit: drop (1 → 5) from stage 2, verify, reject.
	s.Stages[2].Set(1, 5, false)
	c.Touch(2)
	checkResume(t, c, s, "the candidate")
	c.Reject()
	s.Stages[2].Set(1, 5, true)
	checkResume(t, c, s, "after the rejection")
	// The kept add carries the candidate's knowledge one stage early, so the
	// same removal must now be judged against the kept schedule.
	s.Stages[2].Set(1, 5, false)
	c.Touch(2)
	checkResume(t, c, s, "the candidate again")
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
	mat.NewClosure(p).Resume(Tree(p + 1).Stages)
}

func TestKnowledgeCacheRejectsWrongRankCount(t *testing.T) {
	forSizes(t, oneWordSizes, rejectsWrongRankCount)
}
func TestFrontierCacheRejectsWrongRankCount(t *testing.T) {
	forSizes(t, multiWordSizes, rejectsWrongRankCount)
}

// stagesOf builds a schedule over p ranks from per-stage signal lists.
func stagesOf(p int, stages ...[][2]int) *Schedule {
	s := New("fixture", p)
	for _, sigs := range stages {
		st := mat.NewBool(p)
		for _, e := range sigs {
			st.Set(e[0], e[1], true)
		}
		s.AddStage(st)
	}
	return s
}

// TestClosureResumeStaleLevelsNeverDecide pins the three guards on the early
// exits: a base level equal to the candidate's decides only while it is
// current, only once the base is known to synchronise, and a commit that
// closed early leaves no stale level behind it current.
func TestClosureResumeStaleLevelsNeverDecide(t *testing.T) {
	t.Run("stale equal level", func(t *testing.T) {
		// linear(2), then two unverified barrier commits: (0→1) joins stage
		// 0, so stage 1's (0→1) can go. Dropping stage 0's (0→1) again
		// rebuilds linear(2)'s level 1, which the base held before the
		// commits — but without the departure signal it is no barrier.
		s := Linear(2)
		c := mat.NewClosure(2)
		checkResume(t, c, s, "linear(2)")
		c.Commit()
		s.Stages[0].Set(0, 1, true)
		c.Touch(0)
		c.Commit()
		s.Stages[1].Set(0, 1, false)
		c.Touch(1)
		c.Commit()
		s.Stages[0].Set(0, 1, false)
		c.Touch(0)
		checkResume(t, c, s, "candidate")
	})
	t.Run("unsound base", func(t *testing.T) {
		// Four stages of (0→1) never synchronise three ranks. A verdict at
		// stage 3 brings the base's levels up to 3; dropping the redundant
		// stage-1 signal then meets an equal base level at level 2, which
		// must not decide, since no barrier was ever committed.
		sig := [][2]int{{0, 1}}
		s := stagesOf(3, sig, sig, sig, sig)
		c := mat.NewClosure(3)
		s.Stages[3].Set(0, 1, false)
		c.Touch(3)
		checkResume(t, c, s, "first candidate")
		c.Reject()
		s.Stages[3].Set(0, 1, true)
		s.Stages[1].Set(0, 1, false)
		c.Touch(1)
		checkResume(t, c, s, "second candidate")
	})
	t.Run("early close", func(t *testing.T) {
		// Stage 0 lacks only (2→1), which stage 2 delivers, so the base
		// closes at level 3. Adding (2→1) to stage 0 closes it at level 1;
		// after that commit, the base's old level 2 is stale, and a verdict
		// resuming there must not read it.
		s := stagesOf(3, [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}}, nil, [][2]int{{2, 1}})
		c := mat.NewClosure(3)
		checkResume(t, c, s, "base")
		c.Commit()
		s.Stages[0].Set(2, 1, true)
		c.Touch(0)
		checkResume(t, c, s, "early close")
		c.Commit()
		s.Stages[2].Set(2, 1, false)
		c.Touch(2)
		checkResume(t, c, s, "after the early close")
	})
}

// FuzzClosureResumeMatchesScratch lets the fuzzer write the script: byte 0
// picks P ≤ 130, byte 1 the generator, and every following four bytes one
// operation. Every verdict in the script, and one at its end, is checked
// against Run from scratch and Schedule.Knowledge.
func FuzzClosureResumeMatchesScratch(f *testing.F) {
	script := []byte{
		5, 0, 0, 0, // verdict on the seed
		2, 1, 4, 7, 5, 0, 0, 0, 7, 0, 0, 0, // toggle, verdict, reject
		3, 0, 2, 3, 5, 0, 0, 0, 6, 0, 0, 0, // toggle, verdict, commit (or reject)
		4, 2, 1, 0, 6, 0, 0, 0, 5, 0, 0, 0, // toggle, unverified commit, verdict
		0, 0, 0, 0, 2, 9, 1, 2, 5, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, // append, edit it, verdict, cut, verdict
	}
	for _, p := range []byte{5, 63, 64, 65, 128, 129} {
		for g := range 3 { // tree, dissemination, empty
			f.Add(append([]byte{p - 1, byte(g)}, script...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := 1 + int(data[0])%130
		h := newResumeScript(t, resumeGenerators[int(data[1])%len(resumeGenerators)](p))
		for n, ops := 0, data[2:]; len(ops) >= 4 && n < 64; n, ops = n+1, ops[4:] {
			h.apply(int(ops[0]), int(ops[1]), int(ops[2]), int(ops[3]), fmt.Sprintf("op %d", n))
		}
		checkResume(t, h.c, h.s, "end of script")
	})
}
