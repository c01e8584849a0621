// Command runbarrier executes one barrier — on the simulated cluster, or with
// -net over a real loopback mesh — and times it or, with -report, traces it.
//
// The barrier is the hard-coded MPI_Barrier stand-in (simulator only), a
// schedule-driven classic algorithm, a schedule stored as JSON by
// tunebarrier, or hybrid: the adaptive construction tuned against the profile
// the run is priced with — the fabric's true O/L profile on the simulator,
// the live probe with -net. Every schedule passes the barriervet gate before
// it executes, and on the simulator the paper's delay-injection
// synchronization validation (§VI) precedes timing.
//
// With -net the barrier executes over a real loopback TCP mesh (one goroutine
// per rank, internal/netmpi): mesh formation retries through the
// listener-startup race within -net-dial-timeout, every receive is bounded by
// -net-deadline, and any rank failure is reported per rank instead of hanging
// the job. -net-fault injects a deterministic transport fault
// (drop/delay/truncate/sever) on one rank's accepted links to demonstrate the
// fail-fast behaviour. -transport hybrid upgrades every link between
// co-located ranks to an in-process shared-memory link (co-location from
// -colocate, or derived from -cluster/-placement); cross-node links stay TCP
// and failure semantics are identical on both. When the run needs the mesh's
// O/L profile (-report, -retune, -alg hybrid) it runs the simulator's §IV.A
// protocol on every pair, in phases of one repetition, at most -probe-iters
// phases a pair, each pair stopping once its fitted O+L has held for 3
// phases; -profile-cache reuses a fingerprinted profile from an earlier run
// after re-checking one round of links against it through the same
// re-probe -retune uses (a two-phase screen, then the full budget on the
// flagged links; only links that still drift 50 % there are patched).
//
// -report records the message-level execution of the barrier as a
// critpath.Timeline and prints one report from it: a per-rank Gantt timeline,
// the predicted-vs-observed per-stage drift table, the realized critical path
// against the model's predicted chain, and the per-class and per-link
// comparison of observed delivery floors with the profile's O+L — the §VI
// validation story at single-message granularity. With -net the observed
// times are per-cell minima over -iters traced executions.
//
// Usage:
//
//	runbarrier -cluster quad|hex -p N [-placement round-robin|block]
//	           [-alg tree|linear|dissemination|rd|ring|mpi|hybrid|FILE.json]
//	           [-iters N] [-warmup N] [-seed N] [-congestion] [-novalidate]
//	           [-report] [-width N] [-ranks]
//	           [-net] [-net-deadline D] [-net-dial-timeout D]
//	           [-net-fault op:rank:frame[:arg]]
//	           [-transport tcp|hybrid] [-colocate nodes=K|"0-3,4-7"]
//	           [-probe-iters N] [-profile-cache DIR]
//	           [-retune] [-retune-drift F] [-retune-interval D]
//	           [-telemetry addr] [-trace-out file.json] [-flight-dir dir]
//
// -telemetry serves the run's metrics registry (Prometheus text at /metrics,
// expvar at /debug/vars, pprof at /debug/pprof) for the process lifetime;
// with -net the mesh registers per-link frame/byte counters and wait/stage
// histograms into it. -trace-out (with -net) writes the measured barriers'
// per-stage spans as Chrome trace-event JSON.
//
// -flight-dir (with -net) arms a flight recorder: per-stage and per-message
// spans accumulate in a bounded ring of recent windows, and when a barrier
// fails — or, with -retune, when the controller flags drift — the retained
// windows are dumped into the directory as JSON (merged timeline, realized
// critical path, per-link blame) plus a Chrome trace. A final "run-end" dump
// is written on success. With -telemetry the live recorder state is also
// served at /debug/critpath.
//
// Every -net barrier, warmup, traced or timed, is one call of a per-rank
// epoch-versioned runner (netmpi.EpochRunner), so -retune adds nothing but the
// controller. It closes the online tuning loop around the measured run: a
// background controller watches predicted-vs-observed drift (threshold
// -retune-drift, cadence -retune-interval). When drift crosses the threshold
// the controller re-probes the suspect links, patches those confirmed stale
// at the full probe budget, re-tunes the patched profile with the options
// -alg hybrid tunes with, and hot-swaps the re-tuned plan between barrier
// epochs when it beats the running one re-priced — demonstrable live with
// e.g. -net-fault delay:3:100:2ms. With -report it is one read-only pass
// after the last traced barrier instead: the same judgement, re-probe and
// re-tune, printing the schedule the closed loop would swap in without
// touching the mesh.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/faultnet"
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

const (
	// stableK stops a probed pair once its minimum RTT has not improved for
	// this many samples; it is part of the profile-cache fingerprint.
	stableK = 3
	// cacheDriftTol is the relative O+L drift that marks a cached link stale
	// when a -profile-cache hit is re-checked.
	cacheDriftTol = 0.5
)

// tuneOpts is how a plan is tuned: -alg hybrid tunes with it, and the -retune
// controller re-tunes with it, so a swapped-in plan is tuned the way the
// running one was.
var tuneOpts = core.Options{}

// netOnly names the flags that configure a live mesh.
var netOnly = map[string]bool{
	"net-deadline": true, "net-dial-timeout": true, "net-fault": true,
	"transport": true, "colocate": true, "probe-iters": true, "profile-cache": true,
	"retune": true, "retune-drift": true, "retune-interval": true,
	"trace-out": true, "flight-dir": true,
}

func main() {
	var (
		cluster    = flag.String("cluster", "quad", "machine: quad or hex")
		p          = flag.Int("p", 16, "number of ranks")
		placement  = flag.String("placement", "round-robin", "rank placement: round-robin or block")
		alg        = flag.String("alg", "mpi", "barrier: tree, linear, dissemination, rd, ring, mpi (simulator only), hybrid (tuned against the run's profile), or a schedule JSON file")
		iters      = flag.Int("iters", 25, "timed iterations; with -report -net, traced executions (observed times are per-cell minima)")
		warmup     = flag.Int("warmup", 5, "warmup iterations")
		seed       = flag.Uint64("seed", 1, "fabric noise seed")
		congestion = flag.Bool("congestion", false, "enable NIC serialisation")
		novalidate = flag.Bool("novalidate", false, "skip the delay-injection synchronization check")

		report  = flag.Bool("report", false, "trace the barrier instead of timing it and print the Gantt timeline, the predicted-vs-observed drift table and the critical-path report")
		width   = flag.Int("width", 100, "with -report, gantt width in columns")
		perRank = flag.Bool("ranks", false, "with -report, print the per-rank drift rows, not just the per-stage maxima")

		netRun     = flag.Bool("net", false, "execute over a real loopback TCP mesh (goroutine ranks) instead of the simulator")
		netDead    = flag.Duration("net-deadline", 2*time.Second, "per-receive deadline on the mesh, probe included; a rank exceeding it fails the barrier")
		netDial    = flag.Duration("net-dial-timeout", 5*time.Second, "TCP mesh formation budget (dials retry with exponential backoff)")
		netFault   = flag.String("net-fault", "", "inject a transport fault, op:rank:frame[:arg] with op drop|delay|truncate|sever (delay arg: duration, truncate arg: bytes kept); e.g. sever:0:2")
		transport  = flag.String("transport", "tcp", "with -net, mesh transport: tcp, or hybrid (shared memory between co-located ranks)")
		colocate   = flag.String("colocate", "", "with -transport hybrid, co-location spec: \"nodes=K\" or rank groups \"0-3,4-7\"; default derives from -cluster/-placement")
		probeIters = flag.Int("probe-iters", 8, "with -net, max phases per rank pair when probing the O/L profile (-report, -retune, -alg hybrid)")
		cacheDir   = flag.String("profile-cache", "", "with -net, fingerprinted profile cache directory; a warm entry skips the probe after re-validating one round of links")

		retuneRun      = flag.Bool("retune", false, "with -net, run the closed-loop online retuning controller during the measurement; with -report, one read-only check after the traced runs")
		retuneDrift    = flag.Float64("retune-drift", 1.0, "relative predicted-vs-observed drift that triggers a re-probe and re-tune")
		retuneInterval = flag.Duration("retune-interval", 200*time.Millisecond, "cadence of the controller's drift checks")

		telemetryAddr = flag.String("telemetry", "", "serve /metrics, /debug/vars, and /debug/pprof on this address for the run's duration (e.g. 127.0.0.1:9090); with -net the mesh's counters and histograms are registered, and with -flight-dir a /debug/critpath handler serves the merged timeline")
		traceOut      = flag.String("trace-out", "", "with -net, write the measured (with -report: the last traced) barriers as Chrome trace-event JSON")
		flightDir     = flag.String("flight-dir", "", "with -net, run a flight recorder over the mesh's message spans and dump JSON + Chrome trace into this directory on any rank failure, on retune drift triggers, and at run end")
	)
	flag.Parse()

	if *iters <= 0 || *warmup < 0 {
		fatal(fmt.Errorf("need positive -iters and non-negative -warmup"))
	}
	if !*netRun {
		flag.Visit(func(f *flag.Flag) {
			if netOnly[f.Name] {
				fatal(fmt.Errorf("-%s configures a live mesh; live-mesh flags require -net", f.Name))
			}
		})
	} else if *alg == "mpi" {
		fatal(fmt.Errorf("mpi is a hard-coded simulator baseline; -net needs a schedule (tree, linear, dissemination, rd, ring, hybrid, or a JSON file)"))
	} else if *report && *flightDir != "" {
		fatal(fmt.Errorf("-flight-dir records a timed run; it does not combine with -report"))
	}
	lv := &live{p: *p, warmup: *warmup, iters: *iters, deadline: *netDead, dial: *netDial,
		fault: *netFault, traceOut: *traceOut, report: *report, perRank: *perRank, width: *width}

	// The tracer is shared by -report, -trace-out and the flight recorder;
	// the flight path bounds it, since a long-lived recorded run must not grow
	// span memory without limit (evicted spans are counted, and the retained
	// flight windows hold the recent past anyway).
	var extraRoutes []telemetry.Route
	if *netRun && (*report || *traceOut != "" || *flightDir != "") {
		lv.tracer = telemetry.NewTracer()
	}
	if *flightDir != "" {
		lv.tracer.SetCap(1 << 18)
		lv.flight = critpath.NewFlightRecorder(lv.tracer, *p, 16, *flightDir)
		extraRoutes = append(extraRoutes, telemetry.Route{Pattern: "/debug/critpath", Handler: lv.flight.Handler()})
	}
	if *telemetryAddr != "" {
		lv.reg = telemetry.NewRegistry()
		addr, stop, err := telemetry.Serve(*telemetryAddr, lv.reg, extraRoutes...)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
	}
	if !*netRun {
		if err := runSim(*cluster, *placement, *alg, *p, *seed, *congestion, *novalidate, *warmup, *iters, *report, *perRank, *width); err != nil {
			fatal(err)
		}
		return
	}

	var err error
	if lv.nodes, err = netmpi.Colocation(*transport, *colocate, *cluster, *placement, *p); err != nil {
		fatal(err)
	}
	if *retuneRun && lv.reg == nil {
		// The controller observes drift through the mesh's barrier
		// histograms, so a registry is required even without -telemetry.
		lv.reg = telemetry.NewRegistry()
	}
	if *cacheDir != "" {
		lv.cache = &profile.Cache{Dir: *cacheDir}
	}
	lv.probe = netmpi.ProbeOptions{MaxIters: *probeIters, StableK: stableK, Deadline: *netDead, Registry: lv.reg, Tracer: lv.tracer}
	if *retuneRun {
		lv.retune = &retune.Options{DriftTol: *retuneDrift, Probe: lv.probe, Tune: tuneOpts,
			Registry: lv.reg, Tracer: lv.tracer, Flight: lv.flight}
		lv.interval = *retuneInterval
	}
	if err := lv.run(*alg); err != nil {
		fatal(err)
	}
}

// barrier is a resolved -alg value.
type barrier struct {
	name string
	fn   run.Func
	s    *sched.Schedule // nil for the hard-coded mpi baseline
	pl   *run.Plan
}

// resolve maps an -alg value to an executable barrier: the hard-coded mpi
// baseline, which has no schedule and so cannot run with -net; hybrid, tuned
// against pf — the profile the run is priced with; or a named or stored
// schedule (sched.Named). Empty stages are dropped so the schedule's stage
// indices are the plan's (and a trace's). Schedules are vetted before
// execution and refused on Error-severity findings, with the full diagnosis;
// warnings do not gate execution, but silently dropping them hides real
// hazards (rendezvous cycles, silent ranks) from the operator.
func resolve(alg string, p int, pf *profile.Profile) (barrier, error) {
	var s *sched.Schedule
	switch alg {
	case "mpi":
		return barrier{name: "MPI barrier (binomial tree)", fn: baseline.Tree}, nil
	case "hybrid":
		tuned, err := core.Tune(pf, tuneOpts)
		if err != nil {
			return barrier{}, fmt.Errorf("tuning against the profile: %w", err)
		}
		s = tuned.Schedule()
	default:
		var err error
		if s, err = sched.Named(alg, p); err != nil {
			return barrier{}, err
		}
	}
	s = s.DropEmptyStages()
	pl, rep, err := analyze.Vet(s, analyze.Options{SkipRedundancy: true})
	if err != nil {
		fmt.Fprint(os.Stderr, rep)
		return barrier{}, fmt.Errorf("schedule %s fails barriervet: %w", alg, err)
	}
	for _, f := range rep.Findings {
		if f.Severity == analyze.Warning {
			fmt.Fprintf(os.Stderr, "barriervet: %s\n", f)
		}
	}
	return barrier{name: s.Name + " (compiled plan)", fn: pl.Func(), s: s, pl: pl}, nil
}

// runSim runs the barrier on the simulated cluster, priced on the fabric's
// true profile: validated and timed, or with -report traced once.
func runSim(cluster, placement, alg string, p int, seed uint64, congestion, novalidate bool, warmup, iters int, reportOnly, perRank bool, width int) error {
	spec, err := topo.ClusterByName(cluster)
	if err != nil {
		return err
	}
	place, err := topo.PlacementByName(placement)
	if err != nil {
		return err
	}
	fab, err := fabric.New(spec, place, p, fabric.GigEParams(seed))
	if err != nil {
		return err
	}
	pf := fab.TrueProfile()
	b, err := resolve(alg, p, pf)
	if err != nil {
		return err
	}
	if reportOnly {
		// The hard-coded mpi baseline executes sched.Tree's pattern stage for
		// stage, so that schedule is its model.
		s := b.s
		if s == nil {
			s = sched.Tree(p)
		}
		tl, _, err := critpath.Sim(fab, b.fn.Programs(p))
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s barrier, %d ranks on %s (%s)", alg, p, spec.Name, place.Name())
		return report(title, tl, observe(nil, tl), 1, predict.New(pf), s, perRank, width)
	}

	var opts []mpi.Option
	if congestion {
		opts = append(opts, mpi.WithCongestion())
	}
	world := mpi.NewWorld(fab, opts...)
	if !novalidate {
		// Delay a few spread-out ranks rather than all P, keeping validation
		// quick for large jobs.
		delayed := []int{0, p / 2, p - 1}
		if err := run.Validate(world, b.fn, 0.5, delayed); err != nil {
			return fmt.Errorf("synchronization validation failed: %w", err)
		}
		fmt.Fprintf(os.Stderr, "synchronization validated (ranks %v delayed)\n", delayed)
	}
	m, err := run.Measure(world, b.fn, warmup, iters)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, P=%d (%s): %.1fµs/barrier (%d iters, %d warmup)\n",
		b.name, spec.Name, p, place.Name(), m.Mean*1e6, m.Iters, m.Warmup)
	return nil
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
	fmt.Printf("%s: %.1fµs, %d messages (%d unmatched)\n\n", title, (end-start)*1e6, len(tl.Messages), tl.Unmatched)
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

// live is a -net run: one mesh bring-up, at most one probe, and one epoch
// store whose per-rank runners execute every barrier of the run.
type live struct {
	p               int
	nodes           []int // co-location vector; nil for a pure-TCP mesh
	warmup, iters   int
	deadline, dial  time.Duration
	fault, traceOut string
	report, perRank bool
	width           int

	probe    netmpi.ProbeOptions
	cache    *profile.Cache
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	flight   *critpath.FlightRecorder
	retune   *retune.Options // nil without -retune
	interval time.Duration
}

// run brings the mesh up, probes it when anything needs the profile (the
// report's model, the retune controller, the hybrid tune), and executes the
// barrier through one epoch runner per rank: traced with -report, timed
// otherwise. With -retune the controller is built on the runners' store
// before the first barrier, since it snapshots the barrier histograms at
// construction and built any later would see no fresh samples to judge.
func (lv *live) run(alg string) error {
	peers, meshName, err := lv.bringUp()
	if err != nil {
		return err
	}
	defer netmpi.CloseMesh(peers)
	var pf *profile.Profile
	if lv.report || lv.retune != nil || alg == "hybrid" {
		if pf, err = lv.probeMesh(peers); err != nil {
			return err
		}
	}
	b, err := resolve(alg, lv.p, pf)
	if err != nil {
		return err
	}
	eps, err := netmpi.NewEpochs(b.pl)
	if err != nil {
		return err
	}
	runners := make([]*netmpi.EpochRunner, lv.p)
	for i, pe := range peers {
		if runners[i], err = netmpi.NewEpochRunner(pe, eps, 0); err != nil {
			return err
		}
	}
	var ctl *retune.Controller
	if lv.retune != nil {
		opts := *lv.retune
		if lv.report {
			opts.MinObservations = 1 // judge whatever the traced run produced
		}
		if ctl, err = retune.New(peers, eps, b.s, pf, opts); err != nil {
			return err
		}
	}
	if lv.report {
		return lv.traced(runners, b, pf, ctl)
	}
	return lv.timed(runners, eps, meshName, b, ctl)
}

// bringUp forms the mesh: loopback listeners, the -net-fault injector wrapped
// around one rank's, and every rank dialled with the run's telemetry, tracer
// and co-location. Fault injection applies to the TCP links only (the
// faultnet injectors wrap net.Conn).
func (lv *live) bringUp() ([]*netmpi.Peer, string, error) {
	faultRank, injector, err := parseFault(lv.fault)
	if err != nil {
		return nil, "", err
	}
	var opts []netmpi.Option
	if lv.reg != nil {
		opts = append(opts, netmpi.WithTelemetry(lv.reg))
	}
	if lv.tracer != nil {
		opts = append(opts, netmpi.WithTracer(lv.tracer))
	}
	meshName := "loopback TCP"
	if lv.nodes != nil {
		opts = append(opts, netmpi.WithColocation(netmpi.NewShmHub(), lv.nodes))
		meshName = "hybrid shm+TCP"
	}
	listeners, err := netmpi.LoopbackListeners(lv.p)
	if err != nil {
		return nil, "", err
	}
	if faultRank >= 0 && faultRank < lv.p {
		listeners[faultRank] = &faultnet.Listener{Listener: listeners[faultRank], New: injector}
	}
	peers, err := netmpi.MeshOver(listeners, lv.dial, opts...)
	if err != nil {
		return nil, "", err
	}
	if lv.fault != "" {
		fmt.Fprintf(os.Stderr, "fault injection armed on rank %d's accepted links: %s\n", faultRank, lv.fault)
	}
	return peers, meshName, nil
}

// probeMesh measures the paper's O/L profile over the live links in phases
// of the §IV.A protocol, or serves it from the fingerprinted cache, and says
// which.
func (lv *live) probeMesh(peers []*netmpi.Peer) (*profile.Profile, error) {
	fmt.Printf("loopback mesh up: %d ranks, transport %s\n", len(peers), peers[0].TransportSignature())
	pf, rep, hit, err := netmpi.ProbeProfileCached(peers, lv.probe, lv.cache, cacheDriftTol)
	if err != nil {
		return nil, err
	}
	if lv.cache != nil {
		verdict := "miss; stored"
		if hit {
			verdict = "hit"
		}
		fmt.Printf("profile cache %s (%s) in %s\n", verdict, netmpi.MeshFingerprint(peers, lv.probe), lv.cache.Dir)
	}
	if n := rep.TotalSamples(); n > 0 {
		lo, med, hi := rep.SampleStats()
		fmt.Printf("probe: %d phases, %d samples (per pair min %g / median %g / max %g) in %s\n",
			rep.Rounds, n, lo, med, hi, rep.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("probed profile %q: O in [%.1fµs, %.1fµs], L in [%.1fµs, %.1fµs]\n",
		pf.Platform, pf.O.MinOffDiag()*1e6, pf.O.MaxOffDiag()*1e6,
		pf.L.MinOffDiag()*1e6, pf.L.MaxOffDiag()*1e6)
	return pf, nil
}

// traced is the real-transport §VI validation: traced executions over the
// mesh the profile came from, then the report against that profile. With
// -retune, ctl's one read-only check follows the last barrier.
func (lv *live) traced(runners []*netmpi.EpochRunner, b barrier, pf *profile.Profile, ctl *retune.Controller) error {
	if _, err := lv.barriers(runners, lv.warmup); err != nil {
		return fmt.Errorf("warmup barrier: %w", err)
	}
	// Each traced window is two runner calls in every rank's goroutine: an
	// untimed alignment barrier, then the traced one. The model charges every
	// rank from a common t=0, so the ranks must enter the traced barrier
	// together, not staggered by goroutine launch skew. Merge selects the
	// later (traced) instance, and the alignment run doubles as clock-offset
	// material.
	var tl *critpath.Timeline
	var obs [][]float64
	for it := 0; it < lv.iters; it++ {
		lv.tracer.Reset()
		if _, err := lv.barriers(runners, 2); err != nil {
			return fmt.Errorf("traced barrier %d: %w", it, err)
		}
		var err error
		if tl, err = critpath.Merge(lv.tracer.Events(), lv.p, -1); err != nil {
			return fmt.Errorf("merging traced window %d: %w", it, err)
		}
		obs = observe(obs, tl)
	}
	fmt.Println()
	if err := report(b.s.Name+" over the real mesh", tl, obs, lv.iters, predict.New(pf), b.s, lv.perRank, lv.width); err != nil {
		return err
	}
	if ctl != nil {
		if err := printRecommendation(ctl, b.s, lv.retune.DriftTol); err != nil {
			return err
		}
	}
	return writeArtifacts(lv.tracer, lv.traceOut, lv.flight)
}

// printRecommendation runs one pass of the online retuning controller
// read-only: the same drift judgement, targeted re-probe, and re-tune the
// closed loop performs, but after the last barrier, so a
// proposal lands in the epoch store with no call left to install it. The
// operator gets the exact plan `runbarrier -net -retune` would have swapped
// in.
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
		fmt.Printf("  the re-tuned plan did not beat the re-priced one by the hysteresis margin; keep %q\n", s.Name)
		return nil
	}
	fmt.Printf("  recommend switching to %q: predicted %.1fµs, %.1f× better\n",
		ctl.Schedule().Name, d.NewPredicted*1e6, d.Repriced/d.NewPredicted)
	return nil
}

// timed measures the barrier: warmup calls, then the timed ones, and the
// slowest rank's mean per barrier. With -retune the closed-loop controller
// runs alongside — drift checks, targeted re-probes, re-tunes and
// plan hot-swaps all happen while the measured barriers keep flowing — so
// the mean covers the whole story (stale plan, detection, recovery) and the
// retune summary line says which of those chapters actually happened.
func (lv *live) timed(runners []*netmpi.EpochRunner, eps *netmpi.Epochs, meshName string, b barrier, ctl *retune.Controller) error {
	if ctl != nil {
		ctl.Start(lv.interval)
	}
	_, err := lv.barriers(runners, lv.warmup)
	var slowest time.Duration
	if err == nil {
		slowest, err = lv.barriers(runners, lv.iters)
	}
	mode := ""
	if ctl != nil {
		ctl.Stop()
		if cerr := ctl.Err(); cerr != nil {
			return fmt.Errorf("retune loop: %w", cerr)
		}
		mode = " with online retuning"
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s over %s mesh%s, P=%d: %v/barrier (%d iters, %d warmup, deadline %v)\n",
		b.name, meshName, mode, lv.p, slowest/time.Duration(lv.iters), lv.iters, lv.warmup, lv.deadline)
	if ctl != nil {
		checked, triggered, swaps := 0, 0, 0
		for _, d := range ctl.History() {
			if d.Checked {
				checked++
			}
			if d.Triggered {
				triggered++
			}
			if d.Swapped {
				swaps++
			}
		}
		fmt.Printf("retune: %d checks (%d judged), %d triggered, %d swapped; final schedule %q predicted %.1fµs (epoch v%d)\n",
			len(ctl.History()), checked, triggered, swaps, ctl.Schedule().Name, ctl.Predicted()*1e6, eps.Latest())
	}
	return writeArtifacts(lv.tracer, lv.traceOut, lv.flight)
}

// barriers is the one per-rank loop of a -net run: every rank's goroutine
// makes n runner calls back to back. It returns the slowest rank's wall time
// over them, or, when any rank failed within its deadline, names every
// failed rank on stderr, dumps the flight recorder and returns an error.
func (lv *live) barriers(runners []*netmpi.EpochRunner, n int) (time.Duration, error) {
	durs := make([]time.Duration, len(runners))
	rankErrs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for k := 0; k < n && rankErrs[i] == nil; k++ {
				rankErrs[i] = r.Barrier(lv.deadline)
			}
			durs[i] = time.Since(start)
		}()
	}
	wg.Wait()
	failed := 0
	for i, err := range rankErrs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "rank %d failed: %v\n", i, err)
		}
	}
	if failed > 0 {
		dumpFlight(lv.flight, "barrier-failure")
		return 0, fmt.Errorf("%d of %d ranks failed within the %v deadline (fail-fast: no rank hung)", failed, len(runners), lv.deadline)
	}
	return slices.Max(durs), nil
}

// writeArtifacts writes what a successful -net run leaves behind: the Chrome
// trace, when asked for, and the flight recorder's run-end dump.
func writeArtifacts(tracer *telemetry.Tracer, traceOut string, flight *critpath.FlightRecorder) error {
	if tracer != nil && traceOut != "" {
		if err := tracer.WriteChromeTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", traceOut)
	}
	dumpFlight(flight, "run-end")
	return nil
}

// dumpFlight dumps the flight recorder (no-op when none is attached) and
// reports where the dump landed; a dump failure must not mask the run's own
// outcome, so it is only logged.
func dumpFlight(flight *critpath.FlightRecorder, reason string) {
	if flight == nil {
		return
	}
	path, err := flight.Dump(reason)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight dump (%s) failed: %v\n", reason, err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight recorder dumped to %s (reason: %s)\n", path, reason)
}

// parseFault decodes op:rank:frame[:arg] into the target rank and a
// per-connection injector factory. An empty spec disables injection.
func parseFault(spec string) (int, func() faultnet.Injector, error) {
	if spec == "" {
		return -1, nil, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return -1, nil, fmt.Errorf("bad -net-fault %q: want op:rank:frame[:arg]", spec)
	}
	rank, err := strconv.Atoi(parts[1])
	if err != nil || rank < 0 {
		return -1, nil, fmt.Errorf("bad -net-fault rank %q", parts[1])
	}
	frame, err := strconv.Atoi(parts[2])
	if err != nil || frame < 0 {
		return -1, nil, fmt.Errorf("bad -net-fault frame %q", parts[2])
	}
	arg := ""
	if len(parts) > 3 {
		arg = parts[3]
	}
	var mk func() faultnet.Injector
	switch parts[0] {
	case "drop":
		mk = func() faultnet.Injector { return faultnet.DropFrom(frame) }
	case "sever":
		mk = func() faultnet.Injector { return faultnet.SeverAt(frame) }
	case "delay":
		d := 50 * time.Millisecond
		if arg != "" {
			d, err = time.ParseDuration(arg)
			if err != nil {
				return -1, nil, fmt.Errorf("bad -net-fault delay %q: %w", arg, err)
			}
		}
		mk = func() faultnet.Injector { return faultnet.DelayFrom(frame, d) }
	case "truncate":
		keep := 4
		if arg != "" {
			keep, err = strconv.Atoi(arg)
			if err != nil || keep < 0 {
				return -1, nil, fmt.Errorf("bad -net-fault truncate bytes %q", arg)
			}
		}
		mk = func() faultnet.Injector { return faultnet.TruncateAt(frame, keep) }
	default:
		return -1, nil, fmt.Errorf("unknown -net-fault op %q (want drop|delay|truncate|sever)", parts[0])
	}
	return rank, mk, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runbarrier:", err)
	os.Exit(1)
}
