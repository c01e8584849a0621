// Command tracebarrier records the message-level execution of one barrier as
// a critpath.Timeline — the one record both executors produce — and prints
// one report from it: a per-rank Gantt timeline, the predicted-vs-observed
// per-stage drift table (predict.Timeline against the timeline's stage
// completions), the realized critical path against the model's predicted
// chain, and the per-class and per-link comparison of observed delivery
// floors with the profile's O+L — the §VI validation story at single-message
// granularity.
//
// By default the barrier runs on the simulated cluster and is priced on the
// fabric's true O/L profile. With -net it runs over the *real* transport
// instead: tracebarrier forms a loopback mesh (internal/netmpi), probes the
// paper's O/L topological profile over the live links, executes the barrier
// with span tracing, and reports against the probed profile. -trace-out
// additionally writes the traced execution as Chrome trace-event JSON for
// chrome://tracing or Perfetto.
//
// Usage:
//
//	tracebarrier -cluster quad|hex -p N [-placement round-robin|block]
//	             [-alg tree|linear|dissemination|rd|ring|mpi|hybrid|FILE.json]
//	             [-seed N] [-width N] [-ranks]
//	tracebarrier -net -p N [-alg tree|linear|dissemination|rd|ring|hybrid|FILE.json]
//	             [-iters N] [-warmup N] [-probe-iters N]
//	             [-adaptive K] [-profile-cache DIR] [-drift-tol F] [-ranks]
//	             [-recommend F] [-width N]
//	             [-net-deadline D] [-net-dial-timeout D] [-trace-out file.json]
//	             [-transport tcp|hybrid] [-colocate nodes=K|"0-3,4-7"]
//
// Profiling runs as edge-colored parallel rounds (⌊P/2⌋ disjoint pairs per
// round), stops each pair adaptively once its
// minimum RTT is stable for -adaptive samples, and with -profile-cache reuses
// a fingerprinted profile from a previous run, re-validating a sampled
// subset of links against -drift-tol before trusting it. -transport hybrid
// forms the mesh with shared memory between co-located ranks (from
// -colocate, or derived from -cluster/-placement), so the probed profile
// and the drift table show the real intra/inter-node class gap.
//
// -recommend F follows the report with one read-only pass of the online
// retuning controller (internal/retune) at drift tolerance F: if the
// observed-vs-predicted drift exceeds F it re-probes the stale links and
// prints the schedule the closed loop would hot-swap in, without touching
// the running mesh.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/retune"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
	"topobarrier/internal/topo"
)

func main() {
	var (
		cluster   = flag.String("cluster", "quad", "machine: quad or hex (simulator mode)")
		p         = flag.Int("p", 16, "number of ranks")
		placement = flag.String("placement", "round-robin", "rank placement (simulator mode)")
		alg       = flag.String("alg", "mpi", "barrier: tree, linear, dissemination, rd, ring, mpi (simulator only), hybrid, or a schedule JSON file")
		seed      = flag.Uint64("seed", 1, "fabric noise seed (simulator mode)")
		width     = flag.Int("width", 100, "gantt width in columns")
		perRank   = flag.Bool("ranks", false, "print the per-rank drift rows, not just the per-stage maxima")

		netRun     = flag.Bool("net", false, "validate against a real loopback TCP mesh instead of the simulator")
		iters      = flag.Int("iters", 5, "traced barrier executions; observed times are per-cell minima (-net)")
		warmup     = flag.Int("warmup", 3, "untimed warmup barriers (-net)")
		probeIters = flag.Int("probe-iters", 8, "max ping-pongs per ordered rank pair when probing the profile (-net)")
		adaptive   = flag.Int("adaptive", 3, "stop a probed pair once its min RTT is stable for K samples; 0 = fixed iterations (-net)")
		cacheDir   = flag.String("profile-cache", "", "fingerprinted profile cache directory; warm profiles skip the probe (-net)")
		driftTol   = flag.Float64("drift-tol", 0.5, "relative O+L drift that marks a cached link stale during revalidation; 0 trusts the cache blindly (-net)")
		recommend  = flag.Float64("recommend", 0, "after the report, run one offline retune check at this drift tolerance and print the recommended schedule; 0 disables (-net)")
		netDead    = flag.Duration("net-deadline", 5*time.Second, "per-receive deadline on the mesh (-net)")
		netDial    = flag.Duration("net-dial-timeout", 5*time.Second, "mesh formation budget (-net)")
		traceOut   = flag.String("trace-out", "", "write the final traced execution as Chrome trace-event JSON (-net)")
		transport  = flag.String("transport", "tcp", "mesh transport: tcp, or hybrid (shared memory between co-located ranks) (-net)")
		colocate   = flag.String("colocate", "", "co-location spec for -transport hybrid: \"nodes=K\" or rank groups \"0-3,4-7\"; default derives from -cluster/-placement (-net)")
	)
	flag.Parse()

	if !*netRun {
		if *recommend > 0 {
			fatal(fmt.Errorf("-recommend judges a live mesh; it requires -net"))
		}
		if err := runSim(*cluster, *placement, *alg, *p, *seed, *perRank, *width); err != nil {
			fatal(err)
		}
		return
	}
	nodes, err := netmpi.Colocation(*transport, *colocate, *cluster, *placement, *p)
	if err != nil {
		fatal(err)
	}
	popts := netmpi.ProbeOptions{MaxIters: *probeIters, StableK: *adaptive, Deadline: *netDead}
	var cache *profile.Cache
	if *cacheDir != "" {
		cache = &profile.Cache{Dir: *cacheDir}
	}
	if err := runNet(*alg, *p, nodes, *iters, *warmup, popts, cache, *driftTol, *recommend, *netDial, *traceOut, *perRank, *width); err != nil {
		fatal(err)
	}
}

// schedule resolves -alg into the vetted schedule under test and its plan:
// hybrid tunes against pf — the profile the report predicts with — anything
// else is a named generator or a stored schedule. Empty stages are dropped so
// the schedule's stage indices are the plan's (and the trace's).
func schedule(alg string, pf *profile.Profile) (*sched.Schedule, *run.Plan, error) {
	var s *sched.Schedule
	if alg == "hybrid" {
		tuned, err := core.Tune(pf, core.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("tuning against the profile: %w", err)
		}
		s = tuned.Schedule()
	} else {
		var err error
		if s, err = sched.Named(alg, pf.P); err != nil {
			return nil, nil, err
		}
	}
	s = s.DropEmptyStages()
	pl, rep, err := analyze.Vet(s, analyze.Options{SkipRedundancy: true})
	if err != nil {
		fmt.Fprint(os.Stderr, rep)
		return nil, nil, fmt.Errorf("schedule %s fails barriervet: %w", alg, err)
	}
	return s, pl, nil
}

// runSim traces one barrier on the simulated cluster, priced on the fabric's
// true profile. The hard-coded mpi baseline executes sched.Tree's pattern
// stage for stage, so that schedule is its model.
func runSim(cluster, placement, alg string, p int, seed uint64, perRank bool, width int) error {
	spec, err := topo.ClusterByName(cluster)
	if err != nil {
		return err
	}
	pl, err := topo.PlacementByName(placement)
	if err != nil {
		return err
	}
	fab, err := fabric.New(spec, pl, p, fabric.GigEParams(seed))
	if err != nil {
		return err
	}
	pf := fab.TrueProfile()
	fn, s := run.Func(baseline.Tree), sched.Tree(p)
	if alg != "mpi" {
		var plan *run.Plan
		if s, plan, err = schedule(alg, pf); err != nil {
			return err
		}
		fn = plan.Func()
	}
	tl, _, err := critpath.Sim(fab, func(c *mpi.Comm) { fn(c, 0) })
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s barrier, %d ranks on %s (%s)", alg, p, spec.Name, pl.Name())
	return report(title, tl, observe(nil, tl), 1, predict.New(pf), s, perRank, width)
}

// observe folds the timeline's stage completions, measured from the
// instance's start, into obs as per-cell minima.
func observe(obs [][]float64, tl *critpath.Timeline) [][]float64 {
	start, _ := tl.Span()
	done := tl.StageDone()
	for k := range done {
		for r := range done[k] {
			done[k][r] -= start
			if k < len(obs) {
				done[k][r] = min(done[k][r], obs[k][r])
			}
		}
	}
	return done
}

// report prints the one report of a traced barrier, whichever executor ran
// it: tl is the (last) execution's timeline, obs the per-stage, per-rank
// completions observed over runs executions, pd and s the model side.
func report(title string, tl *critpath.Timeline, obs [][]float64, runs int, pd *predict.Predictor, s *sched.Schedule, perRank bool, width int) error {
	pred := pd.Timeline(s)
	if len(obs) != len(pred) || len(pred) == 0 {
		return fmt.Errorf("the trace shows %d stages, schedule %s has %d", len(obs), s.Name, len(pred))
	}
	start, end := tl.Span()
	est := 0
	for _, e := range tl.Estimated {
		if e {
			est++
		}
	}
	fmt.Printf("%s: %.1fµs, %d messages (%d unmatched), clock offsets estimated for %d/%d ranks\n\n",
		title, (end-start)*1e6, len(tl.Messages), tl.Unmatched, est, tl.P)
	fmt.Println(tl.Gantt(width))

	fmt.Printf("%s: predicted vs observed per-stage completion (per-cell min of %d)\n", s.Name, runs)
	fmt.Printf("%5s  %12s  %12s  %8s\n", "stage", "predicted", "observed", "drift")
	row := func(label string, pred, obs float64) {
		drift := 0.0
		if pred > 0 {
			// Positive: the executor ran slower than the model said.
			drift = 100 * (obs - pred) / pred
		}
		fmt.Printf("%s  %10.1fµs  %10.1fµs  %+7.1f%%\n", label, pred*1e6, obs*1e6, drift)
	}
	for k := range pred {
		row(fmt.Sprintf("%5d", k), slices.Max(pred[k]), slices.Max(obs[k]))
		if perRank {
			for i := range pred[k] {
				row(fmt.Sprintf("      rank %3d", i), pred[k][i], obs[k][i])
			}
		}
	}
	row("total", slices.Max(pred[len(pred)-1]), slices.Max(obs[len(obs)-1]))
	fmt.Println()
	fmt.Print(critpath.Analyze(tl, pd, s))
	return nil
}

// runNet is the real-transport §VI validation: probe → predict → execute
// traced → report, all against one live loopback mesh.
func runNet(alg string, p int, nodes []int, iters, warmup int, probeOpts netmpi.ProbeOptions, cache *profile.Cache, driftTol, recommend float64, dialTimeout time.Duration, traceOut string, perRank bool, width int) error {
	if iters <= 0 || warmup < 0 {
		return fmt.Errorf("need positive -iters and non-negative -warmup")
	}
	deadline := probeOpts.Deadline
	tracer := telemetry.NewTracer()
	dialOpts := []netmpi.Option{netmpi.WithTracer(tracer)}
	var reg *telemetry.Registry
	if recommend > 0 {
		// The recommendation reuses the online controller, which observes
		// drift through the mesh's barrier histograms.
		reg = telemetry.NewRegistry()
		dialOpts = append(dialOpts, netmpi.WithTelemetry(reg))
	}
	peers, err := netmpi.HybridMesh(p, nodes, dialTimeout, dialOpts...)
	if err != nil {
		return err
	}
	defer netmpi.CloseMesh(peers)
	fmt.Printf("loopback mesh up: %d ranks, transport %s\n", p, peers[0].TransportSignature())

	// Measure: the paper's O/L profile, probed over the live links in
	// parallel rounds (or served from the fingerprinted cache).
	probeOpts.Tracer = tracer
	pf, rep, hit, err := netmpi.ProbeProfileCached(peers, probeOpts, cache, driftTol)
	if err != nil {
		return err
	}
	if cache != nil {
		verdict := "miss; stored"
		if hit {
			verdict = "hit"
		}
		fmt.Printf("profile cache %s (%s) in %s\n", verdict, netmpi.MeshFingerprint(peers, probeOpts), cache.Dir)
	}
	if n := rep.TotalSamples(); n > 0 {
		lo, med, hi := rep.SampleStats()
		fmt.Printf("probe: %d rounds, %d samples (per pair min %g / median %g / max %g) in %s\n",
			rep.Rounds, n, lo, med, hi, rep.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("probed profile %q: O in [%.1fµs, %.1fµs], L in [%.1fµs, %.1fµs]\n",
		pf.Platform, pf.O.MinOffDiag()*1e6, pf.O.MaxOffDiag()*1e6,
		pf.L.MinOffDiag()*1e6, pf.L.MaxOffDiag()*1e6)

	// Model: the schedule under test, priced on the probed profile.
	s, pl, err := schedule(alg, pf)
	if err != nil {
		return err
	}
	pd := predict.New(pf)

	// The retune recommendation must watch the run from the start: the
	// controller snapshots the barrier histograms at construction, so built
	// any later it would see no fresh samples to judge.
	var ctl *retune.Controller
	if recommend > 0 {
		eps, err := netmpi.NewEpochs(pl)
		if err != nil {
			return err
		}
		ctl, err = retune.New(peers, eps, s, pf, retune.Options{
			DriftTol:        recommend,
			MinObservations: 1, // judge whatever the traced run produced
			Probe:           probeOpts,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
	}

	// Validate: traced executions over the same mesh the profile came from.
	// Each traced barrier is preceded, in the same goroutine, by an untimed
	// alignment barrier: the model charges every rank from a common t=0, so
	// the ranks must enter the measured barrier together, not staggered by
	// goroutine launch skew. Tag windows alternate as in MeasureBarrier; a
	// barrier completing anywhere proves every rank drained the previous
	// window, so two windows suffice even back-to-back.
	runOnce := func(tags ...int) error {
		errs := make(chan error, p)
		for _, pe := range peers {
			pe := pe
			go func() {
				for _, tag := range tags {
					if err := pe.Barrier(pl, tag, deadline); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range peers {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	}
	n := 0
	nextTag := func() int { n++; return (n % 2) * run.TagSpan }
	for i := 0; i < warmup; i++ {
		if err := runOnce(nextTag()); err != nil {
			return fmt.Errorf("warmup barrier: %w", err)
		}
	}
	// Every traced window holds the alignment barrier and the traced one;
	// Merge selects the later (traced) instance, and the alignment run
	// doubles as clock-offset material.
	var tl *critpath.Timeline
	var obs [][]float64
	for it := 0; it < iters; it++ {
		tracer.Reset()
		if err := runOnce(nextTag(), nextTag()); err != nil {
			return fmt.Errorf("traced barrier %d: %w", it, err)
		}
		if tl, err = critpath.Merge(tracer.Events(), p, -1); err != nil {
			return fmt.Errorf("merging traced window %d: %w", it, err)
		}
		obs = observe(obs, tl)
	}
	fmt.Println()
	if err := report(s.Name+" over the real mesh", tl, obs, iters, pd, s, perRank, width); err != nil {
		return err
	}

	if ctl != nil {
		if err := printRecommendation(ctl, s, recommend); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := tracer.WriteChromeTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	return nil
}

// printRecommendation runs one pass of the online retuning controller
// read-only: the same drift judgement, targeted re-probe, and seeded
// re-search the closed loop performs, but with the proposal landing in a
// throwaway epoch store — nothing executing is touched. The operator gets
// the exact plan `runbarrier -net -retune` would have swapped in.
func printRecommendation(ctl *retune.Controller, s *sched.Schedule, tol float64) error {
	d, err := ctl.Check()
	if err != nil {
		return err
	}
	fmt.Printf("\nretune check (tolerance %.2g):\n", tol)
	if !d.Checked {
		fmt.Println("  not enough barrier samples to judge drift")
		return nil
	}
	fmt.Printf("  observed %.1fµs vs predicted %.1fµs — drift %.2f\n", d.Observed*1e6, d.Predicted*1e6, d.Drift)
	if !d.Triggered {
		fmt.Printf("  within tolerance; keep %q\n", s.Name)
		return nil
	}
	fmt.Printf("  re-probe: %d directions screened, %d stale %v\n", d.Reprobe.Screened, len(d.Reprobe.Stale), d.Reprobe.Stale)
	fmt.Printf("  current plan re-priced under the patched profile: %.1fµs\n", d.Repriced*1e6)
	if !d.Swapped {
		fmt.Printf("  no candidate beat the re-priced plan by the hysteresis margin; keep %q\n", s.Name)
		return nil
	}
	fmt.Printf("  recommend switching to %q (%s): predicted %.1fµs, %.1f× better\n",
		ctl.Schedule().Name, d.Candidate, d.NewPredicted*1e6, d.Repriced/d.NewPredicted)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracebarrier:", err)
	os.Exit(1)
}
