package retune

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/faultnet"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

const meshTimeout = 5 * time.Second

// toggleDelay is a faultnet injector whose delay can be switched on and off
// mid-run from the test: 0 passes frames through untouched, anything else
// sleeps that long before each write. One instance is shared by every
// connection the wrapped listener accepts (Judge is atomic, so that is
// safe), which is what lets the test flip an entire rank's outbound links
// from healthy to congested in one store.
type toggleDelay struct{ ns atomic.Int64 }

func (t *toggleDelay) Judge(int) faultnet.Action {
	if d := t.ns.Load(); d > 0 {
		return faultnet.Action{Op: faultnet.Delay, Delay: time.Duration(d)}
	}
	return faultnet.Action{}
}

// driftMesh builds a p-rank TCP mesh publishing telemetry to reg, with
// faultRank's listener wrapped in the shared injector: the frames it delays
// are exactly the ones faultRank writes to higher-numbered ranks (those
// ranks dial faultRank, so their connections are the ones the listener
// wraps).
func driftMesh(t testing.TB, p, faultRank int, inj faultnet.Injector, reg *telemetry.Registry) []*netmpi.Peer {
	t.Helper()
	listeners, err := netmpi.LoopbackListeners(p)
	if err != nil {
		t.Fatal(err)
	}
	listeners[faultRank] = &faultnet.Listener{Listener: listeners[faultRank], New: func() faultnet.Injector { return inj }}
	peers, err := netmpi.MeshOver(listeners, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netmpi.CloseMesh(peers) })
	return peers
}

// runLoop drives every runner through iters collective barriers and fails
// the test on any barrier error or hang — "zero failed or blocked barriers"
// is asserted by construction on every phase of every test here.
func runLoop(t testing.TB, runners []*netmpi.EpochRunner, iters int, what string) {
	t.Helper()
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				if err := r.Barrier(30 * time.Second); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: barrier loop blocked — transport hang:\n%s", what, buf)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: rank %d barrier failed: %v", what, i, err)
		}
	}
}

func newRunners(t testing.TB, peers []*netmpi.Peer, eps *netmpi.Epochs) []*netmpi.EpochRunner {
	t.Helper()
	runners := make([]*netmpi.EpochRunner, len(peers))
	for i, pe := range peers {
		r, err := netmpi.NewEpochRunner(pe, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	return runners
}

// TestClosedLoopRecovery is the end-to-end acceptance test of the retuning
// loop: a live mesh runs a tuned plan, one rank's outbound links to its
// higher-numbered peers silently degrade (3 ms injected write delay), and
// the controller must (1) notice the predicted-vs-observed drift, (2) fully
// re-probe only the drifted directions, (3) re-tune the patched profile
// with the running plan's options, and (4) hot-swap the new plan through
// the epoch store with zero failed or blocked barriers — after which the
// observed barrier cost must recover by at least 1.5× versus the stale plan
// under drift (timing half skipped under -race).
func TestClosedLoopRecovery(t *testing.T) {
	const (
		p         = 7
		faultRank = 3
		delay     = 3 * time.Millisecond
	)
	reg := telemetry.NewRegistry()
	inj := &toggleDelay{}
	peers := driftMesh(t, p, faultRank, inj, reg)

	// Probe the healthy mesh and start on dissemination: rank 3's sends go
	// to ranks 4, 5, and 0, so two of its three outbound links are the ones
	// the injector will degrade — the drift is guaranteed to be on the
	// running plan's critical path.
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
	runners := newRunners(t, peers, eps)

	ctl, err := New(peers, eps, s, pf, Options{
		DriftTol:        10, // far above model noise, far below a 3 ms injected delay
		MinObservations: 6,
		Probe:           probeOpts,
		// The injected fault is a per-link *sender* cost — the write itself
		// blocks 3 ms on every frame, so the probe's batch gradient books it
		// as L[3][j] (and, the pair's fit being symmetric, L[j][3]), with O
		// at its floor. Both policies charge Σ L in every stage, so either
		// steers the re-tune around the slow links; the test keeps Eq. 1,
		// which also charges max_k O[i][jk].
		Tune:     core.Options{Policy: predict.AlwaysEq1},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase A — healthy baseline: the controller must observe and decline.
	runLoop(t, runners, 30, "baseline")
	d1, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Checked {
		t.Fatalf("baseline check skipped: only %v", d1)
	}
	if d1.Triggered {
		t.Fatalf("false trigger on a healthy mesh: observed %.3gs vs predicted %.3gs (drift %.1f)",
			d1.Observed, d1.Predicted, d1.Drift)
	}

	// Phase B — inject drift and accumulate observations under it.
	inj.ns.Store(int64(delay))
	runLoop(t, runners, 20, "under drift")

	// Phase C — the hot check: re-probe, re-tune, and swap proposal all
	// run while barrier traffic keeps flowing.
	var d2 Decision
	var checkErr error
	checkDone := make(chan struct{})
	go func() {
		defer close(checkDone)
		d2, checkErr = ctl.Check()
	}()
	runLoop(t, runners, 60, "during retune")
	<-checkDone
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if !d2.Triggered {
		t.Fatalf("drift not detected: observed %.3gs vs predicted %.3gs (drift %.1f ≤ tol)",
			d2.Observed, d2.Predicted, d2.Drift)
	}
	if d2.Reprobe == nil || len(d2.Reprobe.Stale) == 0 {
		t.Fatal("triggered without confirming any stale link")
	}
	// The delayed writes are rank 3's frames to ranks 4–6; the probe sees
	// them in both directions of each wrapped pair (the echo of a j→3 probe
	// crosses the delayed 3→j path too). Every delayed direction must have
	// been confirmed stale at the full budget…
	wrapped := map[profile.Link]bool{}
	for j := faultRank + 1; j < p; j++ {
		wrapped[profile.Link{From: faultRank, To: j}] = true
		wrapped[profile.Link{From: j, To: faultRank}] = true
	}
	staleSet := map[profile.Link]bool{}
	for _, d := range d2.Reprobe.Stale {
		staleSet[d] = true
	}
	for j := faultRank + 1; j < p; j++ {
		if !staleSet[profile.Link{From: faultRank, To: j}] {
			t.Errorf("delayed direction %d→%d not confirmed stale (stale set %v)", faultRank, j, d2.Reprobe.Stale)
		}
	}
	// …and nothing else: only drifted links are patched. Which links drift is
	// a wall-clock judgement — scheduler noise on a loaded box can smear a
	// healthy link's timings past the threshold (always possible under the
	// race detector) — so it is enforced like the other timing floors.
	if !perftest.RaceEnabled {
		var healthy []profile.Link
		for _, d := range d2.Reprobe.Stale {
			if !wrapped[d] {
				healthy = append(healthy, d)
			}
		}
		perftest.Floor(t, len(healthy) == 0, "healthy directions %v were patched", healthy)
	}
	if !d2.Swapped {
		t.Fatalf("no swap proposed: repriced %.3gs, re-tuned %.3gs",
			d2.Repriced, d2.NewPredicted)
	}
	if d2.NewPredicted >= d2.Repriced {
		t.Fatalf("swapped to a predicted-worse plan: %.3gs ≥ %.3gs", d2.NewPredicted, d2.Repriced)
	}

	// Drain the mixed window (stale-plan and swapped-plan barriers from
	// phase C) and install the swap if the loop above raced past the
	// proposal: one call carries the new version, the next runs it. The
	// check after a swap must be the settling discard, not a judgement on
	// the contaminated window.
	runLoop(t, runners, 8, "post-swap settle")
	d3, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Settling {
		t.Fatalf("first check after a swap judged the mixed window: %+v", d3)
	}
	for i, r := range runners {
		if r.Version() != d2.Version {
			t.Fatalf("rank %d runs version %d after the swap, want %d", i, r.Version(), d2.Version)
		}
		if r.Swaps() == 0 {
			t.Fatalf("rank %d never swapped", i)
		}
	}

	// Phase D — clean post-swap window under the *still-active* delay: the
	// re-tuned plan routes around the slow links, so observed cost recovers.
	runLoop(t, runners, 30, "post-swap")
	d4, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d4.Checked {
		t.Fatal("post-swap check had too few samples")
	}
	t.Logf("baseline: observed %.4gs predicted %.4gs", d1.Observed, d1.Predicted)
	t.Logf("drift:    observed %.4gs repriced %.4gs → re-tuned predicted %.4gs (stale %v)",
		d2.Observed, d2.Repriced, d2.NewPredicted, d2.Reprobe.Stale)
	t.Logf("post-swap: observed %.4gs predicted %.4gs drift %.2f schedule %s (%d stages)",
		d4.Observed, d4.Predicted, d4.Drift, ctl.Schedule().Name, ctl.Schedule().NumStages())
	if perftest.RaceEnabled {
		t.Logf("race build: skipping the 1.5× recovery pin (drift %.3gs → post-swap %.3gs)", d2.Observed, d4.Observed)
		return
	}
	recovery := d2.Observed / d4.Observed
	perftest.Floor(t, recovery >= 1.5, "post-swap barrier cost %.3gs recovered only %.2f× over the stale plan's %.3gs under drift (want ≥1.5×); plan: %s",
		d4.Observed, recovery, d2.Observed, ctl.Schedule().Name)
}

// TestControllerNoDriftNoAction pins the quiet path: on a healthy mesh the
// controller observes, prices, and does nothing.
func TestControllerNoDriftNoAction(t *testing.T) {
	const p = 4
	reg := telemetry.NewRegistry()
	peers, err := netmpi.LoopbackMesh(p, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	pf, _, err := netmpi.ProbeProfileOpts(peers, netmpi.ProbeOptions{MaxIters: 3, StableK: 2})
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
	runners := newRunners(t, peers, eps)
	ctl, err := New(peers, eps, s, pf, Options{
		DriftTol:        1e9, // nothing real ever crosses this
		MinObservations: 4,
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Too few samples: the check must decline to judge.
	d, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if d.Checked {
		t.Fatal("check judged drift with zero fresh samples")
	}

	runLoop(t, runners, 12, "quiet loop")
	d, err = ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Checked || d.Triggered || d.Swapped {
		t.Fatalf("quiet mesh produced action: %+v", d)
	}
	if eps.Latest() != 0 {
		t.Fatalf("a plan was proposed on a quiet mesh (latest version %d)", eps.Latest())
	}
	if d.Observed <= 0 {
		t.Fatalf("no observation on a mesh that ran %d barriers", 12)
	}
}

// TestCertifyKGatesTheSwap: with the running plan's options demanding CertifyK,
// a re-tuned plan must clear the same certification core.Tune demands
// offline. The paper's components compose nothing that survives one silent
// rank, so a triggered check re-probes, the re-tune fails its gate, and
// nothing is proposed.
func TestCertifyKGatesTheSwap(t *testing.T) {
	const p = 8
	reg := telemetry.NewRegistry()
	peers, err := netmpi.LoopbackMesh(p, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	probeOpts := netmpi.ProbeOptions{MaxIters: 3, StableK: 2}
	pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Tree(p)
	plan, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := netmpi.NewEpochs(plan)
	if err != nil {
		t.Fatal(err)
	}
	runners := newRunners(t, peers, eps)
	ctl, err := New(peers, eps, s, pf, Options{
		DriftTol:        1e-9, // any disagreement between model and mesh triggers
		MinObservations: 4,
		Probe:           probeOpts,
		Tune:            core.Options{CertifyK: 1},
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	runLoop(t, runners, 12, "pre-check loop")
	d, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Triggered || d.Reprobe == nil {
		t.Fatalf("check did not trigger: %+v", d)
	}
	if d.Swapped || eps.Latest() != 0 || d.NewPredicted != 0 {
		t.Fatalf("a plan with a 1-fault counterexample cleared the CertifyK gate: swapped %v, re-tuned %.3gs, latest version %d",
			d.Swapped, d.NewPredicted, eps.Latest())
	}
	runLoop(t, runners, 8, "post-check loop")
}

// TestRetuneInheritsThePlanTuning: the controller prices and re-tunes with the
// core.Options the running plan was tuned with, not with defaults of its own.
// Its model of the seed is the seed's price under those options' policy, and a
// triggered check proposes exactly what core.Tune makes of the patched
// profile under the same options.
func TestRetuneInheritsThePlanTuning(t *testing.T) {
	const p = 5
	reg := telemetry.NewRegistry()
	peers, err := netmpi.LoopbackMesh(p, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	probeOpts := netmpi.ProbeOptions{MaxIters: 3, StableK: 2}
	pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	// A linear barrier run twice: its fan-in prices differently under the two
	// policies, and a tuned plan beats its doubled stages by far more than the
	// hysteresis.
	s := sched.Linear(p).Concat(sched.Linear(p))
	tune := core.Options{Builders: sched.ExtendedBuilders(), Policy: predict.AlwaysEq1}
	eq1 := (&predict.Predictor{Prof: pf, Policy: predict.AlwaysEq1}).Cost(s)
	if def := predict.New(pf).Cost(s); def == eq1 {
		t.Fatalf("the seed prices %.3gs under both policies; the test cannot tell them apart", eq1)
	}
	plan, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := netmpi.NewEpochs(plan)
	if err != nil {
		t.Fatal(err)
	}
	runners := newRunners(t, peers, eps)
	ctl, err := New(peers, eps, s, pf, Options{
		DriftTol:        1e-9, // any disagreement between model and mesh triggers
		MinObservations: 4,
		Probe:           probeOpts,
		Tune:            tune,
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.Predicted(); got != eq1 {
		t.Fatalf("controller prices the seed at %.6gs, its AlwaysEq1 price is %.6gs", got, eq1)
	}
	runLoop(t, runners, 12, "pre-check loop")
	d, err := ctl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Triggered || d.Reprobe == nil {
		t.Fatalf("check did not trigger: %+v", d)
	}
	want, err := core.Tune(ctl.pf, tune)
	if err != nil {
		t.Fatal(err)
	}
	if d.NewPredicted != want.PredictedCost() {
		t.Errorf("re-tuned plan predicted %.6gs, core.Tune under the plan's options %.6gs", d.NewPredicted, want.PredictedCost())
	}
	if !d.Swapped || !ctl.Schedule().Equal(want.Schedule()) {
		t.Fatalf("proposed %s (swapped %v, re-priced seed %.3gs), core.Tune under the plan's options makes %s",
			ctl.Schedule().Name, d.Swapped, d.Repriced, want.Schedule().Name)
	}
	runLoop(t, runners, 8, "post-swap loop")
}

// TestReprobeLeavesTheServedModelAlone is the regression for a data race: the
// flight recorder prices the controller's model on whatever goroutine serves
// /debug/critpath, so a triggered Check must not patch the profile that model
// reads. It re-probes a copy and hands the recorder the patched copy, which
// the handler shows once the check is done.
func TestReprobeLeavesTheServedModelAlone(t *testing.T) {
	const p = 4
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	peers, err := netmpi.LoopbackMesh(p, meshTimeout, netmpi.WithTelemetry(reg), netmpi.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	probeOpts := netmpi.ProbeOptions{MaxIters: 3, StableK: 2}
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
	runners := newRunners(t, peers, eps)
	flight := critpath.NewFlightRecorder(tracer, p, 16, t.TempDir())
	ctl, err := New(peers, eps, s, pf, Options{
		DriftTol:        1e-9, // any disagreement triggers, and every screened link is stale
		MinObservations: 4,
		Probe:           probeOpts,
		Registry:        reg,
		Flight:          flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	runLoop(t, runners, 12, "pre-check loop")

	serve := func() []byte {
		rec := httptest.NewRecorder()
		flight.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/critpath", nil))
		return rec.Body.Bytes()
	}
	stop, served := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				served <- n
				return
			default:
				serve()
			}
		}
	}()
	d, err := ctl.Check()
	close(stop)
	if n := <-served; n == 0 {
		t.Error("the handler never served during the check")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !d.Triggered || d.Reprobe == nil || len(d.Reprobe.Stale) == 0 {
		t.Fatalf("check did not re-probe and patch: %+v", d)
	}

	// The handler now prices against the patched copy, not the profile the
	// controller was built with.
	stale := map[profile.Link]bool{}
	for _, l := range d.Reprobe.Stale {
		stale[l] = true
	}
	var doc struct{ Report *critpath.Report }
	if err := json.Unmarshal(serve(), &doc); err != nil || doc.Report == nil {
		t.Fatalf("handler served no report: %v", err)
	}
	shown := false
	for _, b := range doc.Report.Blame {
		if l := (profile.Link{From: b.From, To: b.To}); stale[l] {
			shown = shown || b.Expected != pf.O.At(l.From, l.To)+pf.L.At(l.From, l.To)
		}
	}
	if !shown {
		t.Errorf("the recorder still prices the stale links %v with the unpatched profile", d.Reprobe.Stale)
	}
}

// TestControllerValidation pins the constructor's contract.
func TestControllerValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	peers, err := netmpi.LoopbackMesh(2, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	s := sched.Dissemination(2)
	plan, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := netmpi.NewEpochs(plan)
	if err != nil {
		t.Fatal(err)
	}
	pf := profile.New("test", 2)
	if _, err := New(nil, eps, s, pf, Options{Registry: reg}); err == nil {
		t.Error("nil peers accepted")
	}
	if _, err := New(peers, eps, s, pf, Options{}); err == nil {
		t.Error("missing registry accepted")
	}
	if _, err := New(peers, eps, sched.Dissemination(4), pf, Options{Registry: reg}); err == nil {
		t.Error("mismatched schedule accepted")
	}
	if _, err := New(peers, eps, s, profile.New("test", 4), Options{Registry: reg}); err == nil {
		t.Error("mismatched profile accepted")
	}
}

// TestControllerStartStop exercises the background loop: it must record
// decisions at the configured interval and stop cleanly.
func TestControllerStartStop(t *testing.T) {
	const p = 4
	reg := telemetry.NewRegistry()
	peers, err := netmpi.LoopbackMesh(p, meshTimeout, netmpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	pf, _, err := netmpi.ProbeProfileOpts(peers, netmpi.ProbeOptions{MaxIters: 3, StableK: 2})
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
	runners := newRunners(t, peers, eps)
	ctl, err := New(peers, eps, s, pf, Options{DriftTol: 1e9, MinObservations: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start(10 * time.Millisecond)
	ctl.Start(10 * time.Millisecond) // second start is a no-op, not a second loop
	runLoop(t, runners, 40, "background loop")
	deadline := time.Now().Add(5 * time.Second)
	for len(ctl.History()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctl.Stop()
	ctl.Stop() // idempotent
	if err := ctl.Err(); err != nil {
		t.Fatalf("background loop failed: %v", err)
	}
	if len(ctl.History()) == 0 {
		t.Fatal("background loop recorded no decisions")
	}
}
