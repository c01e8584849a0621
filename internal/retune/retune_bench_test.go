package retune

import (
	"testing"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// BenchmarkRetuneRecovery measures the closed loop end to end and reports
// the observed per-barrier cost in its three phases as custom metrics:
//
//	before-ns/barrier  healthy mesh, initial dissemination plan
//	drift-ns/barrier   3 ms sender-side delay injected, stale plan still live
//	after-ns/barrier   fault still active, controller's hot-swapped plan live
//
// recovery-x is drift/after — how much of the injected degradation the swap
// claws back. Designed for -benchtime 1x: every iteration builds a fresh
// 7-rank mesh and runs the full detect→re-probe→re-tune→swap cycle, so
// ns/op is the whole-loop latency, not a per-barrier figure.
func BenchmarkRetuneRecovery(b *testing.B) {
	const (
		p          = 7
		faultRank  = 3
		delay      = 3 * time.Millisecond
		phaseIters = 30
	)
	var before, drift, after time.Duration
	for n := 0; n < b.N; n++ {
		reg := telemetry.NewRegistry()
		inj := &toggleDelay{}
		peers := driftMesh(b, p, faultRank, inj, reg)

		probeOpts := netmpi.ProbeOptions{MaxIters: 4, StableK: 2, Deadline: 10 * time.Second}
		pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
		if err != nil {
			b.Fatal(err)
		}
		s := sched.Dissemination(p)
		plan, err := run.NewPlan(s)
		if err != nil {
			b.Fatal(err)
		}
		eps, err := netmpi.NewEpochs(plan)
		if err != nil {
			b.Fatal(err)
		}
		runners := newRunners(b, peers, eps)

		ctl, err := New(peers, eps, s, pf, Options{
			DriftTol:        10,
			MinObservations: 6,
			Probe:           probeOpts,
			// Same policy as TestClosedLoopRecovery, whose comment says why
			// either policy steers around the delayed links.
			Tune:     core.Options{Policy: predict.AlwaysEq1},
			Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}

		measure := func(iters int, what string) time.Duration {
			start := time.Now()
			runLoop(b, runners, iters, what)
			return time.Since(start) / time.Duration(iters)
		}

		before = measure(phaseIters, "baseline")
		if _, err := ctl.Check(); err != nil {
			b.Fatal(err)
		}

		inj.ns.Store(int64(delay))
		drift = measure(phaseIters, "under drift")
		d, err := ctl.Check()
		if err != nil {
			b.Fatal(err)
		}
		if !d.Triggered || !d.Swapped {
			b.Fatalf("drift not recovered: triggered=%v swapped=%v (drift %.1f)",
				d.Triggered, d.Swapped, d.Drift)
		}

		// One settling window so the runners agree on the new epoch and the
		// after-phase measures only new-plan barriers.
		runLoop(b, runners, 8, "settle")
		if _, err := ctl.Check(); err != nil {
			b.Fatal(err)
		}
		after = measure(phaseIters, "after swap")
	}
	b.ReportMetric(float64(before.Nanoseconds()), "before-ns/barrier")
	b.ReportMetric(float64(drift.Nanoseconds()), "drift-ns/barrier")
	b.ReportMetric(float64(after.Nanoseconds()), "after-ns/barrier")
	if after > 0 {
		b.ReportMetric(float64(drift)/float64(after), "recovery-x")
	}
}
