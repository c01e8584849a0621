package critpath_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/faultnet"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/retune"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

const meshTimeout = 5 * time.Second

// toggleDelay delays every frame the wrapped side writes by the current
// setting; 0 passes frames through untouched.
type toggleDelay struct{ ns atomic.Int64 }

func (t *toggleDelay) Judge(int) faultnet.Action {
	if d := t.ns.Load(); d > 0 {
		return faultnet.Action{Op: faultnet.Delay, Delay: time.Duration(d)}
	}
	return faultnet.Action{}
}

// delayedLinkMesh builds a p-rank mesh where exactly ONE direction can be
// degraded from the test: wrapping the listener of rank p−2 injects into the
// frames that rank writes on its accepted connections, and only rank p−1
// dials it — so the injector owns precisely the (p−2)→(p−1) direction.
func delayedLinkMesh(t testing.TB, p int, inj faultnet.Injector, opts ...netmpi.Option) []*netmpi.Peer {
	t.Helper()
	listeners, err := netmpi.LoopbackListeners(p)
	if err != nil {
		t.Fatal(err)
	}
	listeners[p-2] = &faultnet.Listener{Listener: listeners[p-2], New: func() faultnet.Injector { return inj }}
	peers, err := netmpi.MeshOver(listeners, meshTimeout, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netmpi.CloseMesh(peers) })
	return peers
}

// barrierAll runs one collective barrier over the plan and returns the
// per-rank errors.
func barrierAll(peers []*netmpi.Peer, pl *run.Plan, tag int, deadline time.Duration) []error {
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, pe := range peers {
		i, pe := i, pe
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = pe.Barrier(pl, tag, deadline)
		}()
	}
	wg.Wait()
	return errs
}

// stageAll runs one barrier of the plan on every rank the way generated code
// does: one Peer.Stage call per entry of the rank's RankOps.
func stageAll(peers []*netmpi.Peer, pl *run.Plan) []error {
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for r, pe := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range pl.RankOps(r) {
				if errs[r] = pe.Stage(st.Tag, st.Recvs, st.Sends); errs[r] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// TestPlanExecutorsSendTheSameMessages: one barrier of the same plan under
// the simulator, on a traced loopback mesh through Peer.Barrier, and on the
// mesh stage by stage through Peer.Stage sends the same signals — equal sets
// of (src, dst, stage, tag) — for the classics and the tuned hybrid at P = 8.
// The sets carry no timing, so the check is deterministic.
func TestPlanExecutorsSendTheSameMessages(t *testing.T) {
	const p = 8
	fab := quadFabric(t, p, fabric.GigEParams(1))
	tuned, err := core.Tune(fab.TrueProfile(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	listeners, err := netmpi.LoopbackListeners(p)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer()
	peers, err := netmpi.MeshOver(listeners, meshTimeout, netmpi.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netmpi.CloseMesh(peers) })

	type signal struct{ src, dst, stage, tag int }
	signals := func(tl *critpath.Timeline) map[signal]bool {
		set := map[signal]bool{}
		for _, m := range tl.Messages {
			set[signal{m.Src, m.Dst, m.Stage, m.Tag}] = true
		}
		return set
	}
	for _, s := range []*sched.Schedule{sched.Linear(p), sched.Tree(p), sched.Dissemination(p), sched.Ring(p), tuned.Schedule()} {
		pl := newPlan(t, s)
		sim, _, err := critpath.Sim(fab, pl.Func().Programs(pl.P))
		if err != nil {
			t.Fatal(err)
		}
		if want := s.SignalCount(); len(sim.Messages) != want {
			t.Fatalf("%s: simulator sent %d of %d signals", s.Name, len(sim.Messages), want)
		}
		for _, leg := range []struct {
			name string
			run  func() []error
		}{
			{"Barrier", func() []error { return barrierAll(peers, pl, 0, meshTimeout) }},
			{"Stage", func() []error { return stageAll(peers, pl) }},
		} {
			for r, err := range leg.run() {
				if err != nil {
					t.Fatalf("%s via %s: rank %d: %v", s.Name, leg.name, r, err)
				}
			}
			live, err := critpath.Merge(tracer.Take(), p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if live.Unmatched != 0 {
				t.Fatalf("%s via %s: mesh left %d unmatched", s.Name, leg.name, live.Unmatched)
			}
			if a, b := signals(sim), signals(live); !maps.Equal(a, b) {
				t.Errorf("%s via %s: simulator sent %v, mesh sent %v", s.Name, leg.name, a, b)
			}
		}
	}
}

// TestBlameAndFlightRecorderE2E is the acceptance test of the tracing
// pipeline on a live P=8 mesh with one faultnet-delayed link (6→7): the
// merged timeline's blame table must put the injected direction on top, the
// aimed re-probe must screen only the implicated handful instead of all
// P·(P−1)=56 directions, and when the link degrades into a latched barrier
// failure the flight recorder must dump a valid Chrome trace of the moments
// before it.
func TestBlameAndFlightRecorderE2E(t *testing.T) {
	const (
		p     = 8
		from  = p - 2 // the one delayed direction is from→to
		to    = p - 1
		delay = 1 * time.Millisecond
	)
	inj := &toggleDelay{}
	tracer := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	peers := delayedLinkMesh(t, p, inj, netmpi.WithTracer(tracer), netmpi.WithTelemetry(reg))

	probeOpts := netmpi.ProbeOptions{MaxIters: 4, StableK: 2, Deadline: 10 * time.Second}
	pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Dissemination(p) // stage 0 sends 6→7: the delay sits on the plan
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	flightDir := t.TempDir()
	flight := critpath.NewFlightRecorder(tracer, p, 16, flightDir)
	pd := predict.New(pf)
	flight.SetModel(pd, s)

	// Seal the probe-era spans into their own window, then run barriers with
	// the delay on: the fresh window holds only drifted traffic.
	flight.Cut("post-probe")
	inj.ns.Store(int64(delay))
	tag := 0
	nextTag := func() int { tag++; return (tag % 2) * run.TagSpan }
	for i := 0; i < 12; i++ {
		for r, err := range barrierAll(peers, pl, nextTag(), meshTimeout) {
			if err != nil {
				t.Fatalf("barrier %d rank %d: %v", i, r, err)
			}
		}
	}

	// Blame: the injected direction must top the table and be implicated.
	fresh := tracer.Events() // the window ImplicatedFresh is about to cut
	links := flight.ImplicatedFresh(pf, 4.0, "drift")
	window := func() string {
		tl, err := critpath.Merge(fresh, p, -1)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(critpath.Analyze(tl, pd, s).String())
		fmt.Fprintf(&b, "%d→%d messages (send start, sent, arrived, wait in µs):\n", from, to)
		for _, m := range tl.All {
			if m.Src == from && m.Dst == to {
				fmt.Fprintf(&b, "  %.1f %.1f %.1f %.1f\n", m.SendStart*1e6, m.Sent*1e6, m.Arrived*1e6, m.Wait*1e6)
			}
		}
		return b.String()
	}
	if len(links) == 0 {
		t.Fatalf("no links implicated under a 1ms injected delay; the window's report:\n%s", window())
	}
	if links[0] != (profile.Link{From: from, To: to}) {
		t.Fatalf("top blame %v, want %d→%d (full set %v); the window's report:\n%s", links[0], from, to, links, window())
	}
	if len(links) >= p*(p-1) {
		t.Fatalf("blame implicated the whole mesh: %d links", len(links))
	}

	// The realized critical path of the last barrier, as a flight dump
	// reports it, must route through the delayed link: a 1ms arrival
	// dominates every healthy ~20µs hop.
	dumpPath, err := flight.Dump("e2e")
	if err != nil {
		t.Fatal(err)
	}
	dumped, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var drift struct {
		Report *critpath.Report `json:"report"`
	}
	if err := json.Unmarshal(dumped, &drift); err != nil || drift.Report == nil {
		t.Fatalf("flight dump carries no report: %v\n%s", err, dumped)
	}
	rep := drift.Report
	if len(rep.Realized) == 0 {
		t.Fatal("no realized critical path extracted")
	}
	onPath := false
	for _, h := range rep.Realized {
		if h.From == from && h.To == to {
			onPath = true
		}
	}
	if !onPath {
		t.Errorf("delayed link %d→%d not on the realized path:\n%s", from, to, rep)
	}
	if rep.Blame[0].From != from || rep.Blame[0].To != to {
		t.Errorf("report top blame %d→%d, want %d→%d", rep.Blame[0].From, rep.Blame[0].To, from, to)
	}

	// Aimed re-probe: screen only the implicated set — strictly fewer than
	// P·(P−1) directions — and fully re-probe the delayed one.
	rrep, err := netmpi.Reprobe(peers, pf, probeOpts, 0.5, links)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Screened != len(links) || rrep.Screened >= p*(p-1) {
		t.Fatalf("aimed screen measured %d directions, want %d (≪ %d)", rrep.Screened, len(links), p*(p-1))
	}
	staleHit := false
	for _, d := range rrep.Stale {
		if d == (profile.Link{From: from, To: to}) {
			staleHit = true
		}
	}
	if !staleHit {
		t.Errorf("delayed direction survived the aimed screen: stale %v", rrep.Stale)
	}
	if got := pf.O.At(from, to) + pf.L.At(from, to); got < delay.Seconds()/2 {
		t.Errorf("patched O+L[%d][%d] = %gµs does not reflect the 1ms delay", from, to, got*1e6)
	}

	// Latched failure: crank the delay past the deadline; rank 7's receive
	// from 6 times out and the failure latches. The flight recorder must
	// dump a loadable Chrome trace of the retained windows.
	inj.ns.Store(int64(600 * time.Millisecond))
	failed := 0
	for _, err := range barrierAll(peers, pl, nextTag(), 150*time.Millisecond) {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no rank failed with the delay past the deadline")
	}
	path, err := flight.Dump("barrier-failure")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason  string            `json:"reason"`
		Windows []json.RawMessage `json:"windows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("flight dump JSON: %v", err)
	}
	if doc.Reason != "barrier-failure" || len(doc.Windows) == 0 {
		t.Errorf("dump doc reason %q with %d windows", doc.Reason, len(doc.Windows))
	}
	traw, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traw, &tdoc); err != nil {
		t.Fatalf("flight Chrome trace: %v", err)
	}
	if len(tdoc.TraceEvents) == 0 {
		t.Error("flight Chrome trace is empty")
	}
}

// barrierWindow describes each rank's netmpi_barrier_seconds observations
// between two registry snapshots: how many, their mean, and the three highest
// occupied buckets with their counts.
func barrierWindow(before, after map[string]any, p int) string {
	var b strings.Builder
	for r := 0; r < p; r++ {
		name := telemetry.Label("netmpi_barrier_seconds", "rank", strconv.Itoa(r))
		h0, _ := before[name].(map[string]any)
		h1, _ := after[name].(map[string]any)
		if h1 == nil {
			fmt.Fprintf(&b, "rank %d: no barrier histogram\n", r)
			continue
		}
		count, _ := h1["count"].(int64)
		sum, _ := h1["sum"].(float64)
		cum0, _ := h0["buckets"].(map[string]int64)
		cum1, _ := h1["buckets"].(map[string]int64)
		if h0 != nil {
			c0, _ := h0["count"].(int64)
			s0, _ := h0["sum"].(float64)
			count, sum = count-c0, sum-s0
		}
		fmt.Fprintf(&b, "rank %d: %d barriers, mean %.3g s;", r, count, sum/float64(count))
		// Cumulative counts to per-bucket counts, in bound order.
		bounds := slices.Collect(maps.Keys(cum1))
		bound := func(k string) float64 {
			if k == "+Inf" {
				return math.Inf(1)
			}
			v, _ := strconv.ParseFloat(k, 64)
			return v
		}
		slices.SortFunc(bounds, func(x, y string) int { return cmp.Compare(bound(x), bound(y)) })
		var occupied []string
		prev := int64(0)
		for _, k := range bounds {
			n := cum1[k] - cum0[k]
			if n > prev {
				occupied = append(occupied, fmt.Sprintf(" ≤%s: %d", k, n-prev))
			}
			prev = n
		}
		for _, o := range occupied[max(0, len(occupied)-3):] {
			b.WriteString(o)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// remeasure measures the directions afresh on a copy of pf, with the mesh
// as it is now, and lists each one's fresh O+L against pf's: what a failing
// closed-loop check's re-probe saw.
func remeasure(peers []*netmpi.Peer, pf *profile.Profile, opts netmpi.ProbeOptions, dirs []profile.Link) string {
	all := make([]int, pf.P)
	for r := range all {
		all[r] = r
	}
	fresh := pf.Sub(all)
	if _, err := netmpi.Reprobe(peers, fresh, opts, 1e-9, dirs); err != nil {
		return err.Error()
	}
	var b strings.Builder
	for _, d := range dirs {
		fmt.Fprintf(&b, "  %v: %.1fµs, profile %.1fµs\n", d, (fresh.O.At(d.From, d.To)+fresh.L.At(d.From, d.To))*1e6, (pf.O.At(d.From, d.To)+pf.L.At(d.From, d.To))*1e6)
	}
	return b.String()
}

// TestAimedReprobeClosedLoop drives the retune controller with a flight
// recorder attached on a live P=8 mesh: on the drift trigger the controller
// must aim the re-probe at the blamed directions — screening strictly fewer
// than P·(P−1)=56 — catch the injected 6→7 link, and still complete the
// re-tune and swap.
func TestAimedReprobeClosedLoop(t *testing.T) {
	const (
		p     = 8
		from  = p - 2
		to    = p - 1
		delay = 3 * time.Millisecond
	)
	inj := &toggleDelay{}
	tracer := telemetry.NewTracer()
	tracer.SetCap(1 << 17)
	reg := telemetry.NewRegistry()
	peers := delayedLinkMesh(t, p, inj, netmpi.WithTracer(tracer), netmpi.WithTelemetry(reg))

	probeOpts := netmpi.ProbeOptions{MaxIters: 4, StableK: 2, Deadline: 10 * time.Second}
	pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Dissemination(p)
	plan, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := netmpi.NewEpochs(plan)
	if err != nil {
		t.Fatal(err)
	}
	runners := make([]*netmpi.EpochRunner, p)
	for i, pe := range peers {
		if runners[i], err = netmpi.NewEpochRunner(pe, eps, 0); err != nil {
			t.Fatal(err)
		}
	}
	runLoop := func(iters int, what string) {
		t.Helper()
		errs := make([]error, p)
		var wg sync.WaitGroup
		for i, r := range runners {
			i, r := i, r
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < iters; n++ {
					if errs[i] = r.Barrier(30 * time.Second); errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: rank %d: %v", what, i, err)
			}
		}
	}

	flightDir := t.TempDir()
	flight := critpath.NewFlightRecorder(tracer, p, 16, flightDir)
	ctl, err := retune.New(peers, eps, s, pf, retune.Options{
		DriftTol:        8,
		MinObservations: 6,
		Probe:           probeOpts,
		Tune:            core.Options{Policy: predict.AlwaysEq1}, // as the retune tests tune
		Registry:        reg,
		Flight:          flight,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy window: check declines, and cuts the flight window so the
	// healthy floors cannot mask the coming drift.
	before := reg.Snapshot()
	runLoop(20, "baseline")
	d1, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Checked || d1.Triggered {
		// Observed is the slowest rank's mean over the window, so one
		// stalled barrier among 20 healthy ones can trip the tolerance: show
		// what each rank's mean is made of.
		t.Fatalf("baseline check: %+v\n%s", d1, barrierWindow(before, reg.Snapshot(), p))
	}

	// Drift window: only 6→7 degrades.
	inj.ns.Store(int64(delay))
	runLoop(15, "under drift")
	d2, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() && d2.Reprobe != nil {
			t.Logf("re-probe: stale %v; the implicated directions' O+L against the profile's:\n%s", d2.Reprobe.Stale, remeasure(peers, pf, probeOpts, d2.Implicated))
		}
	}()
	if !d2.Triggered {
		t.Fatalf("3ms delay on the plan's stage-0 link did not trigger: %+v", d2)
	}
	if len(d2.Implicated) == 0 {
		t.Fatal("triggered check fell back to a full screen: blame named no suspects")
	}
	if d2.Reprobe.Screened != len(d2.Implicated) || d2.Reprobe.Screened >= p*(p-1) {
		t.Fatalf("screened %d directions for %d implicated, want an aimed screen ≪ %d",
			d2.Reprobe.Screened, len(d2.Implicated), p*(p-1))
	}
	hit := false
	for _, d := range d2.Implicated {
		if d == (profile.Link{From: from, To: to}) {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("injected %d→%d not in the implicated set %v", from, to, d2.Implicated)
	}
	staleHit := false
	for _, d := range d2.Reprobe.Stale {
		if d == (profile.Link{From: from, To: to}) {
			staleHit = true
		}
	}
	if !staleHit {
		t.Errorf("injected direction not fully re-probed: stale %v", d2.Reprobe.Stale)
	}
	if !d2.Swapped {
		t.Fatalf("no swap proposed: repriced %.3gs re-tuned %.3gs; implicated %v, re-probed stale %v",
			d2.Repriced, d2.NewPredicted, d2.Implicated, d2.Reprobe.Stale)
	}

	// The drift moment must be on disk: a dump with reason "drift" plus its
	// Chrome trace.
	ents, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	var dumped bool
	for _, e := range ents {
		if strings.Contains(e.Name(), "drift") && strings.HasSuffix(e.Name(), ".trace.json") {
			dumped = true
		}
	}
	if !dumped {
		t.Errorf("no drift flight dump in %s: %v", flightDir, ents)
	}

	// The loop still closes: barriers keep running on the swapped plan.
	runLoop(10, "post-swap")
	t.Logf("drift %.2f, implicated %v, screened %d/%d, swapped to %q",
		d2.Drift, d2.Implicated, d2.Reprobe.Screened, p*(p-1), ctl.Schedule().Name)
}
