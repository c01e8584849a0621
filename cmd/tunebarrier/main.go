// Command tunebarrier runs the paper's adaptive construction (§VII) against
// a stored profile: SSS clustering, greedy component selection, hybrid
// composition, and Eq. 3 verification. It prints the discovered hierarchy
// and decisions, then the predicted cost of each classic schedule on the
// same profile — the low-cost candidate evaluation the paper's Figure 1
// performs "without occupying the target machine" — and optionally stores
// the tuned schedule as JSON for runbarrier and barriervet -emit.
//
// Usage:
//
//	tunebarrier -profile profile.json [-o schedule.json] [-sparseness F]
//	            [-maxdepth N] [-builders paper|extended] [-dump]
//	            [-policy eq1-first-stage|always-eq1]
//	            [-seed-alg hybrid|tree|dissemination|linear|rd|ring|FILE.json]
//	            [-refine N] [-refine-batch N] [-rngseed N] [-telemetry addr]
//	            [-trace-out file.json]
//	            [-profile-cache DIR] [-fingerprint PREFIX]
//	tunebarrier -synthetic-p 1024 [-synthetic-nodes N] [-refine N] ...
//
// -refine N follows the seed with N candidate evaluations of local search
// beyond the greedy composer (§VIII), over the SSS leaf clusters; the result
// replaces the seed only when it prices cheaper and passes the same vet gate,
// and the run reports the seed's cost, the candidates examined, the result's
// cost and its Eq. 3 verdict. The seed is the composed hybrid unless
// -seed-alg names a classic schedule or a schedule file, which skips
// composition and is vetted, refined and written the same way.
//
// -synthetic-p tunes against the noise-free profile of a synthetic
// hierarchical cluster (fabric.ScaleClusterFabric) instead of a stored one —
// the large-P scaling configuration, where the sparse-frontier
// knowledge kernels and cluster-pruned refinement keep a budgeted tune in
// seconds. -refine-batch makes the refinement keep only the best of every N
// candidate mutations. -policy selects the Eq. 1 / Eq. 2 weighting the tune
// and the classic costs are priced with.
//
// -telemetry serves the pipeline's metrics (tune_predicted_cost_seconds and,
// with -refine, the refinement search's counters) over HTTP for the run's
// duration. -trace-out writes one span per pipeline phase
// (compose/vet/refine/plan) as Chrome trace-event JSON.
//
// -profile-cache tunes straight from a fingerprinted profile cache instead of
// a profile file: the newest entry is used, or the newest whose fingerprint
// starts with -fingerprint. profilecluster writes simulator profiles there,
// and runbarrier -net -report -profile-cache writes the profile it probed
// over a live mesh, so tuning for the transport is one live run followed by
// this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/predict"
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
		policy      = flag.String("policy", "eq1-first-stage", "cost policy: eq1-first-stage (Eq. 1 for the first stage, Eq. 2 after) or always-eq1")
		seedAlg     = flag.String("seed-alg", "hybrid", "schedule to refine and write: hybrid composes one; any name runbarrier's -alg takes (tree, dissemination, linear, rd, ring, FILE.json) skips composition")
		refine      = flag.Int("refine", 0, "follow the seed with N candidate evaluations of local-search refinement")
		refineBatch = flag.Int("refine-batch", 0, "refinement keeps the best of every N candidate mutations (0 or 1 = single-candidate steps)")
		rngseed     = flag.Uint64("rngseed", 1, "refinement randomness seed")

		synthP     = flag.Int("synthetic-p", 0, "tune against the noise-free profile of a synthetic hierarchical cluster with this many ranks instead of -profile")
		synthNodes = flag.Int("synthetic-nodes", 0, "with -synthetic-p, node count of the synthetic cluster (0 = about one node per 32 ranks)")

		telemetryAddr = flag.String("telemetry", "", "serve pipeline metrics over HTTP for the run's duration (e.g. 127.0.0.1:9090)")
		traceOut      = flag.String("trace-out", "", "write per-phase pipeline spans as Chrome trace-event JSON")

		cacheDir = flag.String("profile-cache", "", "tune from a fingerprinted profile cache instead of -profile")
		fpPrefix = flag.String("fingerprint", "", "with -profile-cache: fingerprint prefix selecting the entry (default: newest)")
	)
	flag.Parse()
	for _, f := range []struct {
		name  string
		value int
	}{{"refine", *refine}, {"refine-batch", *refineBatch}, {"synthetic-p", *synthP}} {
		if f.value < 0 {
			fmt.Fprintf(os.Stderr, "tunebarrier: -%s must not be negative, got %d (try -h)\n", f.name, f.value)
			os.Exit(2)
		}
	}

	var pf *profile.Profile
	if *synthP > 0 {
		f, err := fabric.ScaleClusterFabric(*synthP, *synthNodes, 1)
		if err != nil {
			fatal(err)
		}
		pf = f.TrueProfile()
		fmt.Fprintf(os.Stderr, "synthetic scale cluster: P=%d over %d nodes\n", *synthP, f.Spec().Nodes)
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
	known := false
	for _, pol := range []predict.CostPolicy{predict.FirstStageEq1, predict.AlwaysEq1} {
		if pol.String() == *policy {
			opts.Policy, known = pol, true
		}
	}
	if !known {
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	tuned, err := tune(pf, *seedAlg, opts)
	if err != nil {
		fatal(err)
	}
	seed, seedCost := tuned.Result.Schedule, tuned.Result.PredictedCost
	fmt.Printf("platform: %s (P=%d)\n", pf.Platform, pf.P)
	fmt.Printf("clusters: %s\n\n", tuned.Tree)
	if *seedAlg == "hybrid" {
		fmt.Print(tuned.Result.Describe())
	} else {
		fmt.Printf("seed %s: %d stages, %d signals, predicted %.1fµs\n",
			seed.Name, seed.NumStages(), seed.SignalCount(), seedCost*1e6)
	}
	if res := tuned.Schedule(); tuned.Search != nil {
		fmt.Printf("\nsearch from %s: predicted %.1fµs\n", seed.Name, seedCost*1e6)
		fmt.Printf("examined %d candidates: %s predicted %.1fµs (%.1f%% better)\n",
			tuned.Search.Examined, res.Name, tuned.PredictedCost()*1e6, 100*(seedCost-tuned.PredictedCost())/seedCost)
		fmt.Printf("result: %d stages, %d signals, barrier verified: %v\n",
			res.NumStages(), res.SignalCount(), res.IsBarrier())
	}
	pd := &predict.Predictor{Prof: pf, Policy: opts.Policy}
	fmt.Printf("\nclassic schedules on the same profile, policy %s:\n", pd.Policy)
	for _, n := range []string{"dissemination", "linear", "recursive-doubling", "ring", "tree"} {
		s, err := sched.Named(n, pf.P)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %2d stages %5d signals predicted %9.1fµs\n",
			n, s.NumStages(), s.SignalCount(), pd.Cost(s)*1e6)
	}
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

// tune composes the hybrid, or takes the named schedule as the seed, and
// vets and refines it.
func tune(pf *profile.Profile, alg string, opts core.Options) (*core.Tuned, error) {
	if alg == "hybrid" {
		return core.Tune(pf, opts)
	}
	seed, err := sched.Named(alg, pf.P)
	if err != nil {
		return nil, err
	}
	return core.TuneFrom(pf, seed, opts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunebarrier:", err)
	os.Exit(1)
}
