package trace

import (
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func quadFabric(t testing.TB, p int) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func syntheticEvents() []mpi.TraceEvent {
	return []mpi.TraceEvent{
		{Src: 0, Dst: 1, Sent: 0, Arrived: 10e-6},
		{Src: 0, Dst: 3, Sent: 0, Arrived: 5e-6}, // unrelated short hop
		{Src: 1, Dst: 2, Sent: 10e-6, Arrived: 25e-6},
		{Src: 2, Dst: 3, Sent: 25e-6, Arrived: 30e-6},
	}
}

func TestSpanAndLatencies(t *testing.T) {
	r := &Recorder{Events: syntheticEvents()}
	start, end := r.Span()
	if start != 0 || end != 30e-6 {
		t.Fatalf("span = [%g, %g]", start, end)
	}
	links := r.PerLink()
	if len(links) != 4 {
		t.Fatalf("per-link latencies = %+v", links)
	}
	if l := links[2]; l.Src != 1 || l.Dst != 2 || l.Count != 1 || l.Mean != 15e-6 || l.Max != 15e-6 {
		t.Fatalf("link 1→2 latency wrong: %+v", l)
	}
}

func TestCriticalPathFollowsCausalChain(t *testing.T) {
	r := &Recorder{Events: syntheticEvents()}
	chain := r.CriticalPath()
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3: %+v", len(chain), chain)
	}
	if chain[0].Src != 0 || chain[0].Dst != 1 ||
		chain[1].Src != 1 || chain[1].Dst != 2 ||
		chain[2].Src != 2 || chain[2].Dst != 3 {
		t.Fatalf("chain = %+v", chain)
	}
	// The chain must be causally ordered.
	for i := 1; i < len(chain); i++ {
		if chain[i].Sent < chain[i-1].Arrived-1e-15 {
			t.Fatalf("chain not causal at hop %d", i)
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	r := &Recorder{}
	if got := r.CriticalPath(); got != nil {
		t.Fatalf("empty recorder produced a chain: %v", got)
	}
}

func TestTracedBarrierRun(t *testing.T) {
	p := 8
	w, rec := NewTracedWorld(quadFabric(t, p))
	elapsed, err := RunOnce(w, run.ScheduleFunc(sched.Tree(p)))
	if err != nil {
		t.Fatal(err)
	}
	// A tree barrier over 8 ranks delivers 2·7 = 14 signals.
	if len(rec.Events) != 14 {
		t.Fatalf("recorded %d events, want 14", len(rec.Events))
	}
	_, end := rec.Span()
	if end > elapsed+1e-12 {
		t.Fatalf("event after run end: %g > %g", end, elapsed)
	}
	chain := rec.CriticalPath()
	if len(chain) < 3 {
		t.Fatalf("tree critical path too short: %d hops", len(chain))
	}
	// The chain must terminate at the last arrival in the run.
	if chain[len(chain)-1].Arrived < end-1e-12 {
		t.Fatalf("chain does not end at the final arrival")
	}
}

func TestPerLinkSeparatesClasses(t *testing.T) {
	p := 8
	w, rec := NewTracedWorld(quadFabric(t, p))
	if _, err := RunOnce(w, run.ScheduleFunc(sched.Dissemination(p))); err != nil {
		t.Fatal(err)
	}
	stats := rec.PerLink()
	if len(stats) == 0 {
		t.Fatalf("no link stats")
	}
	// Round-robin p=8 on the quad cluster spans one node? No: 8 ranks fit
	// one node, so every link is intra-node; all means must be small.
	for _, ls := range stats {
		if ls.Count < 1 || ls.Mean <= 0 || ls.Max < ls.Mean {
			t.Fatalf("malformed link stats %+v", ls)
		}
		if ls.Mean > 20e-6 {
			t.Fatalf("intra-node link %d->%d mean %.1fµs too slow", ls.Src, ls.Dst, ls.Mean*1e6)
		}
	}
}

func TestPerLinkObservesHierarchy(t *testing.T) {
	p := 16 // two nodes under round-robin
	w, rec := NewTracedWorld(quadFabric(t, p))
	if _, err := RunOnce(w, run.ScheduleFunc(sched.Dissemination(p))); err != nil {
		t.Fatal(err)
	}
	f := quadFabric(t, p)
	var local, remote []float64
	for _, ls := range rec.PerLink() {
		if f.Class(ls.Src, ls.Dst) == topo.CrossNode {
			remote = append(remote, ls.Mean)
		} else {
			local = append(local, ls.Mean)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		t.Fatalf("expected both link classes in a 2-node dissemination")
	}
	if mean(remote) < 5*mean(local) {
		t.Fatalf("traces do not expose the locality gap: remote %.1fµs vs local %.1fµs",
			mean(remote)*1e6, mean(local)*1e6)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGanttRendering(t *testing.T) {
	p := 4
	w, rec := NewTracedWorld(quadFabric(t, p))
	if _, err := RunOnce(w, run.ScheduleFunc(sched.Linear(p))); err != nil {
		t.Fatal(err)
	}
	g := rec.Gantt(p, 40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != p+1 {
		t.Fatalf("gantt rows = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(g, ">") || !strings.Contains(g, "<") {
		t.Fatalf("gantt lacks send/arrive marks:\n%s", g)
	}
	if (&Recorder{}).Gantt(2, 40) != "(no events)\n" {
		t.Fatalf("empty gantt wrong")
	}
}

func TestMeasuredCriticalPathTracksElapsed(t *testing.T) {
	// The elapsed time of a single linear barrier equals the end of its
	// measured critical path.
	p := 12
	w, rec := NewTracedWorld(quadFabric(t, p))
	elapsed, err := RunOnce(w, run.ScheduleFunc(sched.Linear(p)))
	if err != nil {
		t.Fatal(err)
	}
	chain := rec.CriticalPath()
	endOfChain := chain[len(chain)-1].Arrived
	if endOfChain > elapsed || elapsed-endOfChain > 5e-6 {
		t.Fatalf("critical path ends at %g, run at %g", endOfChain, elapsed)
	}
}
