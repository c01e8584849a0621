// Command tunebarrier runs the paper's adaptive construction (§VII) against
// a stored profile: SSS clustering, greedy component selection, hybrid
// composition, and Eq. 3 verification. It prints the discovered hierarchy
// and decisions, and optionally stores the composed schedule as JSON for
// runbarrier and genbarrier.
//
// Usage:
//
//	tunebarrier -profile profile.json [-o schedule.json] [-sparseness F]
//	            [-maxdepth N] [-builders paper|extended] [-dump]
//	            [-refine N] [-refine-batch N] [-telemetry addr]
//	            [-trace-out file.json]
//	            [-profile-cache DIR] [-fingerprint PREFIX]
//	            [-probe-net P] [-transport tcp|hybrid] [-colocate SPEC]
//	            [-probe-iters N] [-drift-tol F]
//	tunebarrier -synthetic-p 1024 [-synthetic-nodes N] [-refine N] ...
//
// -synthetic-p tunes against the noise-free profile of a synthetic
// hierarchical cluster (fabric.ScaleClusterFabric) instead of a stored or
// probed one — the large-P scaling configuration, where the sparse-frontier
// knowledge kernels and cluster-pruned refinement keep a budgeted tune in
// seconds. -refine-batch makes the refinement keep only the best of every N
// candidate mutations.
//
// -telemetry serves the pipeline's metrics (tune_predicted_cost_seconds and,
// with -refine, the refinement search's counters) over HTTP for the run's
// duration. -trace-out writes one span per pipeline phase
// (compose/vet/refine/plan) as Chrome trace-event JSON.
//
// -profile-cache tunes straight from a fingerprinted profile cache (as
// written by profilecluster or tracebarrier -net) instead of a profile file:
// the newest entry is used, or the newest whose fingerprint starts with
// -fingerprint.
//
// -probe-net P skips stored profiles entirely: it forms a live P-rank
// loopback mesh, probes the O/L matrices over it, and tunes against the
// measurement. -transport hybrid with -colocate routes co-located links over
// shared memory, so the probed profile carries the intra- vs
// cross-node cost gap and the SSS clustering can exploit it. Combined with
// -profile-cache, the live probe goes through the fingerprinted cache: a
// warm entry (same rank count, probe budget, and transport signature — a
// hybrid mesh never shares a slot with a pure-TCP one) skips the
// measurement after revalidating a sampled round against -drift-tol, and a
// cold probe stores its result for the next run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
)

func main() {
	var (
		profPath    = flag.String("profile", "profile.json", "profile file written by profilecluster")
		out         = flag.String("o", "", "write the composed schedule as JSON")
		sparseness  = flag.Float64("sparseness", sss.DefaultSparseness, "SSS sparseness fraction of diameter")
		maxdepth    = flag.Int("maxdepth", 0, "clustering recursion bound (0 = unlimited)")
		builders    = flag.String("builders", "paper", "component set: paper or extended")
		dump        = flag.Bool("dump", false, "print the stage matrices (Figure 10 style)")
		refine      = flag.Int("refine", 0, "follow composition with N candidate evaluations of local-search refinement")
		refineBatch = flag.Int("refine-batch", 0, "refinement keeps the best of every N candidate mutations (0 or 1 = single-candidate steps)")
		rngseed     = flag.Uint64("rngseed", 1, "refinement randomness seed")

		synthP     = flag.Int("synthetic-p", 0, "tune against the noise-free profile of a synthetic hierarchical cluster with this many ranks instead of -profile")
		synthNodes = flag.Int("synthetic-nodes", 0, "with -synthetic-p, node count of the synthetic cluster (0 = about one node per 32 ranks)")

		telemetryAddr = flag.String("telemetry", "", "serve pipeline metrics over HTTP for the run's duration (e.g. 127.0.0.1:9090)")
		traceOut      = flag.String("trace-out", "", "write per-phase pipeline spans as Chrome trace-event JSON")

		cacheDir = flag.String("profile-cache", "", "tune from a fingerprinted profile cache instead of -profile")
		fpPrefix = flag.String("fingerprint", "", "with -profile-cache: fingerprint prefix selecting the entry (default: newest)")

		probeNet   = flag.Int("probe-net", 0, "probe a live P-rank loopback mesh and tune against the measured profile instead of -profile")
		transport  = flag.String("transport", "tcp", "with -probe-net, mesh transport: tcp, or hybrid (shared memory between co-located ranks)")
		colocate   = flag.String("colocate", "", "with -transport hybrid, co-location spec: \"nodes=K\" or rank groups \"0-3,4-7\"")
		probeIters = flag.Int("probe-iters", 8, "with -probe-net, max ping-pongs per ordered rank pair")
		driftTol   = flag.Float64("drift-tol", 0.5, "with -probe-net and -profile-cache, relative O+L drift that marks a cached link stale during revalidation; 0 trusts a hit blindly")
	)
	flag.Parse()

	var pf *profile.Profile
	if *synthP > 0 {
		f, err := fabric.ScaleClusterFabric(*synthP, *synthNodes, 1)
		if err != nil {
			fatal(err)
		}
		pf = f.TrueProfile()
		fmt.Fprintf(os.Stderr, "synthetic scale cluster: P=%d over %d nodes\n", *synthP, f.Spec().Nodes)
	} else if *probeNet > 0 {
		var cache *profile.Cache
		if *cacheDir != "" {
			cache = &profile.Cache{Dir: *cacheDir}
		}
		npf, err := probeLiveProfile(*probeNet, *transport, *colocate, *probeIters, cache, *driftTol)
		if err != nil {
			fatal(err)
		}
		pf = npf
	} else if *cacheDir != "" {
		cache := &profile.Cache{Dir: *cacheDir}
		cpf, fp, ok, err := cache.LoadLatest(*fpPrefix)
		if err != nil {
			fatal(err)
		}
		if !ok {
			fatal(fmt.Errorf("no cache entry under %s matching fingerprint prefix %q", *cacheDir, *fpPrefix))
		}
		fmt.Fprintf(os.Stderr, "profile cache hit (%s)\n", fp)
		pf = cpf
	} else {
		var err error
		pf, err = profile.Load(*profPath)
		if err != nil {
			fatal(err)
		}
	}
	opts := core.Options{
		Clustering:  sss.Options{Sparseness: *sparseness, MaxDepth: *maxdepth},
		Refine:      *refine,
		RefineSeed:  *rngseed,
		RefineBatch: *refineBatch,
	}
	if *telemetryAddr != "" {
		opts.Telemetry = telemetry.NewRegistry()
		addr, stop, err := telemetry.Serve(*telemetryAddr, opts.Telemetry)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
		opts.Tracer = tracer
	}
	switch *builders {
	case "paper":
		opts.Builders = sched.PaperBuilders()
	case "extended":
		opts.Builders = sched.ExtendedBuilders()
	default:
		fatal(fmt.Errorf("unknown builder set %q", *builders))
	}

	tuned, err := core.Tune(pf, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("platform: %s (P=%d)\n", pf.Platform, pf.P)
	fmt.Printf("clusters: %s\n\n", tuned.Tree)
	fmt.Print(tuned.Result.Describe())
	if *dump {
		fmt.Println()
		fmt.Print(tuned.Schedule().String())
	}
	if *out != "" {
		data, err := json.MarshalIndent(tuned.Schedule(), "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if tracer != nil {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote pipeline trace to %s\n", *traceOut)
	}
}

// probeLiveProfile forms a live mesh, measures the O/L profile over it, and
// tears the mesh down — tuning then proceeds from a measurement of the very
// transport the schedule will run on. With a cache, the probe is served
// through the mesh fingerprint (rank count, probe budget, transport
// signature), so a tune against a hybrid mesh can never pick up a profile
// measured on pure TCP — their cost matrices are the thing being tuned for.
func probeLiveProfile(p int, transport, colocate string, probeIters int, cache *profile.Cache, driftTol float64) (*profile.Profile, error) {
	nodes, err := netmpi.Colocation(transport, colocate, "", "", p)
	if err != nil {
		return nil, err
	}
	peers, err := netmpi.HybridMesh(p, nodes, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer netmpi.CloseMesh(peers)
	fmt.Fprintf(os.Stderr, "probing live %s mesh: %d ranks (%s)\n",
		transport, p, peers[0].TransportSignature())
	opts := netmpi.ProbeOptions{MaxIters: probeIters}
	pf, _, hit, err := netmpi.ProbeProfileCached(peers, opts, cache, driftTol)
	if err != nil {
		return nil, err
	}
	if hit {
		fmt.Fprintf(os.Stderr, "profile cache hit (%s)\n", netmpi.MeshFingerprint(peers, opts))
	} else if cache != nil {
		fmt.Fprintf(os.Stderr, "profile cache miss; stored probe as %s\n", netmpi.MeshFingerprint(peers, opts))
	}
	return pf, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunebarrier:", err)
	os.Exit(1)
}
