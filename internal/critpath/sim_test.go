package critpath_test

import (
	"fmt"
	"strings"
	"testing"

	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

func quadFabric(t testing.TB, p int, params fabric.Params) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, params)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newPlan compiles a schedule the test knows to be a barrier.
func newPlan(t testing.TB, s *sched.Schedule) *run.Plan {
	t.Helper()
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// simBarrier runs s's plan once on the noisy GigE quad cluster and returns
// the execution's timeline, its elapsed time and the Wtime every rank read
// when its barrier returned.
func simBarrier(t testing.TB, s *sched.Schedule, seed uint64) (*critpath.Timeline, float64, []float64) {
	t.Helper()
	pl := newPlan(t, s)
	wtime := make([]float64, s.P)
	tl, elapsed, err := critpath.Sim(quadFabric(t, s.P, fabric.GigEParams(seed)), func(c *mpi.Comm) {
		pl.Execute(c, 0)
		wtime[c.Rank()] = c.Wtime()
	})
	if err != nil {
		t.Fatal(err)
	}
	return tl, elapsed, wtime
}

// checkRealizedPath holds a simulated execution's realized critical path to
// what the executor did: one hop per stage, every link hop a signal of the
// schedule, each hop starting on the rank the previous one ended on, and the
// chain ending at the rank that finished last, when the run did.
func checkRealizedPath(t *testing.T, s *sched.Schedule, tl *critpath.Timeline, elapsed float64) {
	t.Helper()
	path := tl.CriticalPath()
	if len(path) != s.NumStages() {
		t.Fatalf("%s: %d hops for %d stages", s.Name, len(path), s.NumStages())
	}
	on := path[0].From
	for k, h := range path {
		if h.Stage != k {
			t.Errorf("%s: hop %d labelled stage %d", s.Name, k, h.Stage)
		}
		if h.From != h.To && !s.Stages[k].At(h.From, h.To) {
			t.Errorf("%s: stage %d hop %d→%d is not a signal of the schedule", s.Name, k, h.From, h.To)
		}
		if h.From != on {
			t.Errorf("%s: chain broken at stage %d: on rank %d, hop is %+v", s.Name, k, on, h)
		}
		if on = h.To; h.Blocked {
			on = h.From
		}
	}
	done := tl.StageDone()
	if last := done[len(done)-1]; last[on] != stats.Max(last) || last[on] != elapsed {
		t.Errorf("%s: path ends on rank %d at %g; the run ended at %g", s.Name, on, last[on], elapsed)
	}
	if _, end := tl.Span(); end != elapsed {
		t.Errorf("%s: timeline ends at %g, the run at %g", s.Name, end, elapsed)
	}
}

// TestSimTimelineFidelity is the contract that lets one record serve both
// executors: for every generator, every P ∈ {2…33, 64} and a composed
// schedule, on the noisy fabric, the last-stage completion the timeline
// reports for rank r is exactly the Wtime r read when its barrier returned,
// and the realized path is made of the schedule's own signals.
func TestSimTimelineFidelity(t *testing.T) {
	sizes := []int{64}
	for p := 2; p <= 33; p++ {
		sizes = append(sizes, p)
	}
	for _, p := range sizes {
		schedules := []*sched.Schedule{sched.RecursiveDoubling(p), sched.SymmetricDissemination(p)}
		for _, b := range sched.ExtendedBuilders() {
			arrival := b.Arrival(p)
			s := arrival.Clone()
			if b.NeedsDeparture() {
				s.Concat(arrival.ReverseTransposed())
			}
			schedules = append(schedules, s)
		}
		if p == 22 || p == 64 {
			tuned, err := core.Tune(quadFabric(t, p, fabric.GigEParams(1)).TrueProfile(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			schedules = append(schedules, tuned.Schedule().DropEmptyStages())
		}
		for _, s := range schedules {
			tl, elapsed, wtime := simBarrier(t, s, uint64(p))
			done := tl.StageDone()
			if len(done) != s.NumStages() {
				t.Fatalf("%s: timeline has %d stages, schedule %d", s.Name, len(done), s.NumStages())
			}
			for r, w := range wtime {
				if got := done[len(done)-1][r]; got != w {
					t.Errorf("%s: rank %d completed at %v by the timeline, read Wtime %v", s.Name, r, got, w)
				}
			}
			checkRealizedPath(t, s, tl, elapsed)
		}
	}
}

// TestSimBlameFindsTheUnderstatedLink is the virtual-time twin of the live
// blame test, one no scheduler can perturb: P = 8 dissemination, scored
// against the fabric's true profile with one direction's O and L understated
// 20×, must put that direction on top of the blame table for every seed.
func TestSimBlameFindsTheUnderstatedLink(t *testing.T) {
	const p, from, to = 8, 6, 7
	s := sched.Dissemination(p)
	for seed := uint64(1); seed <= 100; seed++ {
		tl, _, _ := simBarrier(t, s, seed)
		pf := quadFabric(t, p, fabric.GigEParams(seed)).TrueProfile()
		pf.O.Set(from, to, pf.O.At(from, to)/20)
		pf.L.Set(from, to, pf.L.At(from, to)/20)
		if top := tl.LinkBlame(pf)[0]; top.From != from || top.To != to {
			t.Errorf("seed %d: top blame %d→%d (score %.2f), want %d→%d", seed, top.From, top.To, top.Score, from, to)
		}
	}
}

// TestSimBlameIgnoresAnUpstreamStall pins what the formula
// min(Arrived − SendStart, Wait) does with exact clocks: a rank entering 1 ms
// late stalls everything downstream of it, and no link's delivery floor
// moves — no floor rises to even a hundredth of the stall.
func TestSimBlameIgnoresAnUpstreamStall(t *testing.T) {
	const p, late, stall = 8, 6, 1e-3
	pl := newPlan(t, sched.Dissemination(p))
	for seed := uint64(1); seed <= 20; seed++ {
		fab := quadFabric(t, p, fabric.GigEParams(seed))
		tl, _, err := critpath.Sim(fab, func(c *mpi.Comm) {
			for n := 0; n < 6; n++ {
				if c.Rank() == late {
					c.Compute(stall)
				}
				pl.Execute(c, (n%2)*run.TagSpan)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tl.LinkBlame(fab.TrueProfile()) {
			if b.Observed > stall/100 {
				t.Errorf("seed %d: %d→%d floor %.1fµs inherited the stall", seed, b.From, b.To, b.Observed*1e6)
			}
		}
	}
}

// TestPredictedTimelineResiduals logs where predict.Timeline parts from the
// executor on a noise-free fabric — per stage and per link class — for the
// classics and the tuned schedule at P = 64: the starting table of the
// model-fidelity work (ROADMAP item 2), deliberately without a threshold.
func TestPredictedTimelineResiduals(t *testing.T) {
	const p = 64
	params := fabric.GigEParams(1)
	for c, l := range params.Classes {
		l.Sigma = 0
		params.Classes[c] = l
	}
	params.SelfSigma = 0
	fab := quadFabric(t, p, params)
	pd := predict.New(fab.TrueProfile())
	tuned, err := core.Tune(pd.Prof, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*sched.Schedule{sched.Linear(p), sched.Tree(p), sched.Dissemination(p), tuned.Schedule().DropEmptyStages()} {
		pl := newPlan(t, s)
		tl, _, err := critpath.Sim(fab, func(c *mpi.Comm) { pl.Execute(c, 0) })
		if err != nil {
			t.Fatal(err)
		}
		pred, done := pd.Timeline(s), tl.StageDone()
		var b strings.Builder
		for k := range pred {
			pm, om := stats.Max(pred[k]), stats.Max(done[k])
			fmt.Fprintf(&b, " %d:%+.0f%%", k, 100*(om-pm)/pm)
		}
		t.Logf("%s residual per stage (observed vs predicted completion):%s", s.Name, b.String())
		rep := critpath.Analyze(tl, pd, s).String()
		t.Logf("%s per class:\n%s", s.Name, rep[strings.Index(rep, "per-class residual"):strings.Index(rep, "slowest links")])
	}
}

// TestTracedBarrierRun checks the shape of a traced tree barrier: one message
// per signal, nothing after the run's end, a path through the tree.
func TestTracedBarrierRun(t *testing.T) {
	s := sched.Tree(8)
	tl, elapsed, _ := simBarrier(t, s, 1)
	// A tree barrier over 8 ranks delivers 2·7 = 14 signals.
	if len(tl.Messages) != 14 || tl.Unmatched != 0 {
		t.Fatalf("recorded %d messages (%d unmatched), want 14", len(tl.Messages), tl.Unmatched)
	}
	links := 0
	for _, h := range tl.CriticalPath() {
		if h.From != h.To {
			links++
		}
	}
	if links < 3 {
		t.Fatalf("tree critical path crosses only %d links", links)
	}
	checkRealizedPath(t, s, tl, elapsed)
}

// TestMeasuredCriticalPathTracksElapsed: the elapsed time of a single linear
// barrier is the end of its realized critical path.
func TestMeasuredCriticalPathTracksElapsed(t *testing.T) {
	s := sched.Linear(12)
	tl, elapsed, _ := simBarrier(t, s, 1)
	checkRealizedPath(t, s, tl, elapsed)
}

// TestPerLinkSeparatesClasses: round-robin P = 8 on the quad cluster fits one
// node, so every observed link is intra-node and every floor small.
func TestPerLinkSeparatesClasses(t *testing.T) {
	tl, _, _ := simBarrier(t, sched.Dissemination(8), 1)
	blame := tl.LinkBlame(nil)
	if len(blame) != 24 {
		t.Fatalf("%d directions observed, want 24", len(blame))
	}
	for _, b := range blame {
		// A floor of zero is a message that sat unexpected: it says nothing
		// about its link.
		if b.Count != 1 || b.Observed < 0 || b.Observed > 20e-6 || b.Transport == topo.CrossNode.String() {
			t.Fatalf("intra-node link stats malformed: %+v", b)
		}
	}
}

// TestPerLinkObservesHierarchy: two nodes under round-robin expose the
// locality gap, per link and labelled with the fabric's link classes.
func TestPerLinkObservesHierarchy(t *testing.T) {
	tl, _, _ := simBarrier(t, sched.Dissemination(16), 1)
	var local, remote []float64
	for _, b := range tl.LinkBlame(nil) {
		if b.Transport == topo.CrossNode.String() {
			remote = append(remote, b.Observed)
		} else {
			local = append(local, b.Observed)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		t.Fatalf("expected both link classes in a 2-node dissemination")
	}
	if stats.Mean(remote) < 5*stats.Mean(local) {
		t.Fatalf("traces do not expose the locality gap: remote %.1fµs vs local %.1fµs",
			stats.Mean(remote)*1e6, stats.Mean(local)*1e6)
	}
}

// TestGanttRendering checks the text timeline: one header and one row per
// rank, send and arrival marks, and the empty case.
func TestGanttRendering(t *testing.T) {
	const p = 4
	tl, _, _ := simBarrier(t, sched.Linear(p), 1)
	g := tl.Gantt(40)
	if lines := strings.Split(strings.TrimRight(g, "\n"), "\n"); len(lines) != p+1 {
		t.Fatalf("gantt rows = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(g, ">") || !strings.Contains(g, "<") {
		t.Fatalf("gantt lacks send/arrive marks:\n%s", g)
	}
	empty, err := critpath.MergeSim(nil, quadFabric(t, 2, fabric.GigEParams(1)), -1)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Gantt(40) != "(no events)\n" || tl.Gantt(5) != "(no events)\n" {
		t.Fatalf("empty gantt wrong")
	}
}

// syntheticEvents is a three-hop causal chain 0→1→2→3, one hop per stage,
// next to an unrelated short hop 0→3.
func syntheticEvents() []mpi.TraceEvent {
	return []mpi.TraceEvent{
		{Src: 0, Dst: 3, Tag: 0, Sent: 0, Arrived: 5e-6, Posted: 0, Matched: 5e-6},
		{Src: 0, Dst: 1, Tag: 0, Sent: 0, Arrived: 10e-6, Posted: 0, Matched: 10e-6},
		{Src: 1, Dst: 2, Tag: 1, Sent: 10e-6, Arrived: 25e-6, Posted: 0, Matched: 25e-6},
		{Src: 2, Dst: 3, Tag: 2, Sent: 25e-6, Arrived: 30e-6, Posted: 5e-6, Matched: 30e-6},
	}
}

func TestSpanAndLatencies(t *testing.T) {
	tl, err := critpath.MergeSim(syntheticEvents(), quadFabric(t, 4, fabric.GigEParams(1)), -1)
	if err != nil {
		t.Fatal(err)
	}
	if start, end := tl.Span(); start != 0 || end != 30e-6 {
		t.Fatalf("span = [%g, %g]", start, end)
	}
	blame := tl.LinkBlame(nil)
	if len(blame) != 4 {
		t.Fatalf("per-link table = %+v", blame)
	}
	for _, b := range blame {
		if b.From == 1 && b.To == 2 && (b.Count != 1 || b.Observed != 15e-6) {
			t.Fatalf("link 1→2 latency wrong: %+v", b)
		}
	}
	// A receive posted after the arrival says nothing about the link.
	late := syntheticEvents()
	late[3].Posted, late[3].Matched = 40e-6, 40e-6
	tl, err = critpath.MergeSim(late, quadFabric(t, 4, fabric.GigEParams(1)), -1)
	if err != nil {
		t.Fatal(err)
	}
	if m := tl.Messages[len(tl.Messages)-1]; m.Arrived != 40e-6 || m.Wait != 0 {
		t.Fatalf("late receive: arrived %g wait %g, want 40µs and 0", m.Arrived, m.Wait)
	}
}

func TestCriticalPathFollowsCausalChain(t *testing.T) {
	tl, err := critpath.MergeSim(syntheticEvents(), quadFabric(t, 4, fabric.GigEParams(1)), -1)
	if err != nil {
		t.Fatal(err)
	}
	chain := tl.CriticalPath()
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3: %+v", len(chain), chain)
	}
	for k, h := range chain {
		// The last signal completes its synchronized sender and its receiver
		// at the same instant; the walk may end on either.
		if h.From != k || (h.To != k+1 && k < 2) {
			t.Fatalf("chain = %+v", chain)
		}
		// The chain must be causally ordered.
		if k > 0 && h.Sent < chain[k-1].Arrived {
			t.Fatalf("chain not causal at hop %d", k)
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	tl, err := critpath.MergeSim(nil, quadFabric(t, 2, fabric.GigEParams(1)), -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.CriticalPath(); got != nil {
		t.Fatalf("empty timeline produced a chain: %v", got)
	}
}
