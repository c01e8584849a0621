// Command runbarrier measures barrier implementations on a simulated
// cluster: the schedule-driven classic algorithms, the hard-coded
// MPI_Barrier stand-in, or a schedule stored as JSON by
// tunebarrier. It also runs the paper's delay-injection synchronization
// validation (§VI) before timing.
//
// With -net, the barrier instead executes over a real loopback TCP mesh
// (one goroutine per rank, internal/netmpi): mesh formation retries through
// the listener-startup race within -net-dial-timeout, every receive is
// bounded by -net-deadline, and any rank failure is reported per rank
// instead of hanging the job. -net-fault injects a deterministic transport
// fault (drop/delay/truncate/sever) on one rank's accepted links to
// demonstrate the fail-fast behaviour. -transport hybrid upgrades every
// link between co-located ranks to an in-process shared-memory link
// (co-location from -colocate, or derived from -cluster/-placement);
// cross-node links stay TCP and failure semantics are identical on both.
//
// Usage:
//
//	runbarrier -cluster quad|hex -p N [-placement round-robin|block]
//	           [-alg tree|linear|dissemination|mpi|rd|FILE.json]
//	           [-iters N] [-warmup N] [-seed N] [-congestion] [-novalidate]
//	           [-net] [-net-deadline D] [-net-dial-timeout D]
//	           [-net-fault op:rank:frame[:arg]]
//	           [-transport tcp|hybrid] [-colocate nodes=K|"0-3,4-7"]
//	           [-retune] [-retune-drift F] [-retune-interval D]
//	           [-retune-budget N]
//	           [-telemetry addr] [-trace-out file.json] [-flight-dir dir]
//
// -telemetry serves the run's metrics registry (Prometheus text at /metrics,
// expvar at /debug/vars, pprof at /debug/pprof) for the process lifetime;
// with -net the mesh registers per-link frame/byte counters and wait/stage
// histograms into it. -trace-out (with -net) writes every measured barrier's
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
// -retune (with -net) closes the online tuning loop around the measured run:
// the mesh is probed before measurement, barriers execute through
// epoch-versioned runners, and a background controller watches
// predicted-vs-observed drift (threshold -retune-drift, cadence
// -retune-interval). When drift crosses the threshold the controller
// re-probes only the stale links, re-searches from the running schedule
// (budget -retune-budget), and hot-swaps the winning plan between barrier
// epochs — demonstrable live with e.g. -net-fault delay:3:100:2ms.
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
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/faultnet"
	"topobarrier/internal/mpi"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/retune"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
	"topobarrier/internal/topo"
)

func main() {
	var (
		cluster    = flag.String("cluster", "quad", "machine: quad or hex")
		p          = flag.Int("p", 16, "number of ranks")
		placement  = flag.String("placement", "round-robin", "rank placement: round-robin or block")
		alg        = flag.String("alg", "mpi", "barrier: tree, linear, dissemination, mpi, rd, or a schedule JSON file")
		iters      = flag.Int("iters", 25, "timed iterations")
		warmup     = flag.Int("warmup", 5, "warmup iterations")
		seed       = flag.Uint64("seed", 1, "fabric noise seed")
		congestion = flag.Bool("congestion", false, "enable NIC serialisation")
		novalidate = flag.Bool("novalidate", false, "skip the delay-injection synchronization check")

		netRun    = flag.Bool("net", false, "execute over a real loopback TCP mesh (goroutine ranks) instead of the simulator")
		netDead   = flag.Duration("net-deadline", 2*time.Second, "per-receive deadline on the TCP mesh; a rank exceeding it fails the barrier")
		netDial   = flag.Duration("net-dial-timeout", 5*time.Second, "TCP mesh formation budget (dials retry with exponential backoff)")
		netFault  = flag.String("net-fault", "", "inject a transport fault, op:rank:frame[:arg] with op drop|delay|truncate|sever (delay arg: duration, truncate arg: bytes kept); e.g. sever:0:2")
		transport = flag.String("transport", "tcp", "with -net, mesh transport: tcp, or hybrid (shared memory between co-located ranks)")
		colocate  = flag.String("colocate", "", "with -transport hybrid, co-location spec: \"nodes=K\" or rank groups \"0-3,4-7\"; default derives from -cluster/-placement")

		retuneRun      = flag.Bool("retune", false, "with -net, run the closed-loop online retuning controller during the measurement")
		retuneDrift    = flag.Float64("retune-drift", 1.0, "relative predicted-vs-observed drift that triggers a re-probe and re-search")
		retuneInterval = flag.Duration("retune-interval", 200*time.Millisecond, "cadence of the controller's drift checks")
		retuneBudget   = flag.Int("retune-budget", 4000, "candidate evaluations of the seeded re-search per trigger")

		telemetryAddr = flag.String("telemetry", "", "serve /metrics, /debug/vars, and /debug/pprof on this address for the run's duration (e.g. 127.0.0.1:9090); with -net the mesh's counters and histograms are registered, and with -flight-dir a /debug/critpath handler serves the merged timeline")
		traceOut      = flag.String("trace-out", "", "with -net, write the measured barriers as Chrome trace-event JSON")
		flightDir     = flag.String("flight-dir", "", "with -net, run a flight recorder over the mesh's message spans and dump JSON + Chrome trace into this directory on any rank failure, on retune drift triggers, and at run end")
	)
	flag.Parse()

	name, fn, s, pl, err := resolve(*alg, *p)
	if err != nil {
		fatal(err)
	}

	// The tracer is shared by -trace-out and the flight recorder; the flight
	// path bounds it, since a long-lived recorded run must not grow span
	// memory without limit (evicted spans are counted, and the retained
	// flight windows hold the recent past anyway).
	var tracer *telemetry.Tracer
	var flight *critpath.FlightRecorder
	var extraRoutes []telemetry.Route
	if *netRun && (*traceOut != "" || *flightDir != "") {
		tracer = telemetry.NewTracer()
	}
	if *flightDir != "" {
		if !*netRun {
			fatal(fmt.Errorf("-flight-dir records a real transport execution; it requires -net"))
		}
		tracer.SetCap(1 << 18)
		flight = critpath.NewFlightRecorder(tracer, *p, 16, *flightDir)
		extraRoutes = append(extraRoutes, telemetry.Route{Pattern: "/debug/critpath", Handler: flight.Handler()})
	}

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		addr, stop, err := telemetry.Serve(*telemetryAddr, reg, extraRoutes...)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
	}

	if *netRun {
		nodes, err := netmpi.Colocation(*transport, *colocate, *cluster, *placement, *p)
		if err != nil {
			fatal(err)
		}
		var rc *retuneConfig
		if *retuneRun {
			if reg == nil {
				// The controller observes drift through the mesh's barrier
				// histograms, so a registry is required even without
				// -telemetry.
				reg = telemetry.NewRegistry()
			}
			rc = &retuneConfig{drift: *retuneDrift, interval: *retuneInterval, budget: *retuneBudget}
		}
		if err := runNet(name, s, pl, nodes, *warmup, *iters, *netDead, *netDial, *netFault, reg, tracer, *traceOut, flight, rc); err != nil {
			fatal(err)
		}
		return
	}
	if *traceOut != "" {
		fatal(fmt.Errorf("-trace-out records a real transport execution; it requires -net"))
	}
	if *transport != "tcp" || *colocate != "" {
		fatal(fmt.Errorf("-transport/-colocate select the live mesh transport; they require -net"))
	}
	if *retuneRun {
		fatal(fmt.Errorf("-retune closes the loop on a live mesh; it requires -net"))
	}

	spec, err := topo.ClusterByName(*cluster)
	if err != nil {
		fatal(err)
	}
	place, err := topo.PlacementByName(*placement)
	if err != nil {
		fatal(err)
	}
	fab, err := fabric.New(spec, place, *p, fabric.GigEParams(*seed))
	if err != nil {
		fatal(err)
	}
	var opts []mpi.Option
	if *congestion {
		opts = append(opts, mpi.WithCongestion())
	}
	world := mpi.NewWorld(fab, opts...)

	if !*novalidate {
		// Delay a few spread-out ranks rather than all P, keeping validation
		// quick for large jobs.
		delayed := []int{0, *p / 2, *p - 1}
		if err := run.Validate(world, fn, 0.5, delayed); err != nil {
			fatal(fmt.Errorf("synchronization validation failed: %w", err))
		}
		fmt.Fprintf(os.Stderr, "synchronization validated (ranks %v delayed)\n", delayed)
	}
	m, err := run.Measure(world, fn, *warmup, *iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s, P=%d (%s): %.1fµs/barrier (%d iters, %d warmup)\n",
		name, spec.Name, *p, place.Name(), m.Mean*1e6, m.Iters, m.Warmup)
}

// resolve maps an -alg value to an executable barrier: the hard-coded mpi
// baseline, which has no schedule and so cannot run with -net, or a named or
// stored schedule (sched.Named) compiled to its plan. Schedules are vetted
// before execution and refused on Error-severity findings, with the full
// diagnosis; warnings do not gate execution, but silently dropping them hides
// real hazards (rendezvous cycles, silent ranks) from the operator.
func resolve(alg string, p int) (string, run.Func, *sched.Schedule, *run.Plan, error) {
	if alg == "mpi" {
		return "MPI barrier (binomial tree)", baseline.Tree, nil, nil, nil
	}
	s, err := sched.Named(alg, p)
	if err != nil {
		return "", nil, nil, nil, err
	}
	pl, rep, err := analyze.Vet(s, analyze.Options{SkipRedundancy: true})
	if err != nil {
		fmt.Fprint(os.Stderr, rep)
		return "", nil, nil, nil, fmt.Errorf("schedule %s fails barriervet: %w", alg, err)
	}
	for _, f := range rep.Findings {
		if f.Severity == analyze.Warning {
			fmt.Fprintf(os.Stderr, "barriervet: %s\n", f)
		}
	}
	return s.Name + " (compiled plan)", pl.Func(), s, pl, nil
}

// retuneConfig carries the -retune knobs into runNet.
type retuneConfig struct {
	drift    float64
	interval time.Duration
	budget   int
}

// runNet executes the barrier over a real loopback mesh with per-rank
// failure reporting: every rank either reports its mean barrier time or the
// transport error that stopped it within its deadline. A non-nil nodes
// vector routes co-located links over shared memory; fault injection
// applies to the TCP links only (the faultnet injectors wrap net.Conn). A
// non-nil rc runs the measurement through epoch runners with the online
// retuning controller attached.
func runNet(name string, s *sched.Schedule, pl *run.Plan, nodes []int, warmup, iters int, deadline, dialTimeout time.Duration, faultSpec string, reg *telemetry.Registry, tracer *telemetry.Tracer, traceOut string, flight *critpath.FlightRecorder, rc *retuneConfig) error {
	if s == nil {
		return fmt.Errorf("%s is a hard-coded simulator baseline; -net needs a schedule (tree, linear, dissemination, rd, or a JSON file)", name)
	}
	faultRank, injector, err := parseFault(faultSpec)
	if err != nil {
		return err
	}
	var dialOpts []netmpi.Option
	if reg != nil {
		dialOpts = append(dialOpts, netmpi.WithTelemetry(reg))
	}
	if tracer != nil {
		dialOpts = append(dialOpts, netmpi.WithTracer(tracer))
	}
	meshName := "loopback TCP"
	if nodes != nil {
		dialOpts = append(dialOpts, netmpi.WithColocation(netmpi.NewShmHub(), nodes))
		meshName = "hybrid shm+TCP"
	}
	listeners, err := netmpi.LoopbackListeners(s.P)
	if err != nil {
		return err
	}
	if faultRank >= 0 && faultRank < s.P {
		listeners[faultRank] = &faultnet.Listener{Listener: listeners[faultRank], New: injector}
	}
	peers, err := netmpi.MeshOver(listeners, dialTimeout, dialOpts...)
	if err != nil {
		return err
	}
	defer netmpi.CloseMesh(peers)
	if faultSpec != "" {
		fmt.Fprintf(os.Stderr, "fault injection armed on rank %d's accepted links: %s\n", faultRank, faultSpec)
	}
	if rc != nil {
		return runNetRetuned(name, meshName, s, pl, peers, warmup, iters, deadline, rc, reg, tracer, traceOut, flight)
	}

	durs := make([]time.Duration, s.P)
	rankErrs := make([]error, s.P)
	var wg sync.WaitGroup
	for i := range peers {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs[i], rankErrs[i] = peers[i].MeasureBarrier(pl, warmup, iters, deadline)
		}()
	}
	wg.Wait()
	slowest, err := rankOutcome(durs, rankErrs, deadline, flight)
	if err != nil {
		return err
	}
	fmt.Printf("%s over %s mesh, P=%d: %v/barrier (%d iters, %d warmup, deadline %v)\n",
		name, meshName, s.P, slowest, iters, warmup, deadline)
	return writeArtifacts(tracer, traceOut, flight)
}

// rankOutcome is how a measured -net loop ends: the slowest rank's mean when
// every rank finished, or every failed rank named on stderr, the flight
// recorder dumped, and an error.
func rankOutcome(durs []time.Duration, rankErrs []error, deadline time.Duration, flight *critpath.FlightRecorder) (time.Duration, error) {
	failed := 0
	for i, err := range rankErrs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "rank %d failed: %v\n", i, err)
		}
	}
	if failed > 0 {
		dumpFlight(flight, "barrier-failure")
		return 0, fmt.Errorf("%d of %d ranks failed within the %v deadline (fail-fast: no rank hung)", failed, len(rankErrs), deadline)
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

// runNetRetuned measures the barrier through epoch-versioned runners with
// the closed-loop controller running alongside: drift checks, targeted
// re-probes, seeded re-searches, and plan hot-swaps all happen while the
// measured barriers keep flowing. The reported mean therefore covers the
// whole story — stale plan, detection, and recovery — and the retune summary
// line says which of those chapters actually happened.
func runNetRetuned(name, meshName string, s *sched.Schedule, pl *run.Plan, peers []*netmpi.Peer, warmup, iters int, deadline time.Duration, rc *retuneConfig, reg *telemetry.Registry, tracer *telemetry.Tracer, traceOut string, flight *critpath.FlightRecorder) error {
	p := len(peers)
	probeOpts := netmpi.ProbeOptions{MaxIters: 6, StableK: 3, Deadline: deadline, Registry: reg, Tracer: tracer}
	pf, _, err := netmpi.ProbeProfileOpts(peers, probeOpts)
	if err != nil {
		return fmt.Errorf("probing the mesh for retuning: %w", err)
	}
	eps, err := netmpi.NewEpochs(pl)
	if err != nil {
		return err
	}
	runners := make([]*netmpi.EpochRunner, p)
	for i, pe := range peers {
		if runners[i], err = netmpi.NewEpochRunner(pe, eps, 0); err != nil {
			return err
		}
	}
	ctl, err := retune.New(peers, eps, s, pf, retune.Options{
		DriftTol:     rc.drift,
		Probe:        probeOpts,
		SearchBudget: rc.budget,
		Registry:     reg,
		Tracer:       tracer,
		Flight:       flight,
	})
	if err != nil {
		return err
	}
	ctl.Start(rc.interval)
	defer ctl.Stop()

	durs := make([]time.Duration, p)
	rankErrs := make([]error, p)
	var wg sync.WaitGroup
	for i := range peers {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < warmup; n++ {
				if rankErrs[i] = runners[i].Barrier(deadline); rankErrs[i] != nil {
					return
				}
			}
			start := time.Now()
			for n := 0; n < iters; n++ {
				if rankErrs[i] = runners[i].Barrier(deadline); rankErrs[i] != nil {
					return
				}
			}
			durs[i] = time.Since(start) / time.Duration(iters)
		}()
	}
	wg.Wait()
	ctl.Stop()
	if err := ctl.Err(); err != nil {
		return fmt.Errorf("retune loop: %w", err)
	}

	slowest, err := rankOutcome(durs, rankErrs, deadline, flight)
	if err != nil {
		return err
	}
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
	fmt.Printf("%s over %s mesh with online retuning, P=%d: %v/barrier (%d iters, %d warmup, deadline %v)\n",
		name, meshName, p, slowest, iters, warmup, deadline)
	fmt.Printf("retune: %d checks (%d judged), %d triggered, %d swapped; final schedule %q predicted %.1fµs (epoch v%d)\n",
		len(ctl.History()), checked, triggered, swaps, ctl.Schedule().Name, ctl.Predicted()*1e6, eps.Latest())
	return writeArtifacts(tracer, traceOut, flight)
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
