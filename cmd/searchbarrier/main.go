// Command searchbarrier explores the admissible schedule space beyond the
// greedy composition (§VII.B / §VIII future work) by deterministic local
// search seeded with the tuned hybrid or a classic algorithm.
//
// Usage:
//
//	searchbarrier -profile profile.json [-seed-alg hybrid|tree|dissemination|linear]
//	              [-budget N] [-restarts N] [-workers N] [-rngseed N]
//	              [-cluster-prune] [-batch N]
//	              [-progress] [-telemetry addr] [-o schedule.json]
//	searchbarrier -synthetic-p 1024 [-synthetic-nodes N] [-budget N] ...
//
// -synthetic-p skips the profile file and searches against the noise-free
// profile of a synthetic hierarchical cluster (fabric.ScaleClusterFabric) —
// the large-P scaling configuration. -cluster-prune biases mutation
// proposals by the profile's SSS cluster structure (intra-cluster and
// leader-to-leader sends dominate), and -batch N keeps only the best of
// every N candidates; both preserve the bit-identical-for-any-workers
// guarantee.
//
// -telemetry serves live search metrics (candidates/sec, accepted moves,
// elite adoptions, per-restart progress) over HTTP for the run's
// duration: Prometheus text at /metrics, expvar at /debug/vars, pprof at
// /debug/pprof. Metrics are flushed at exchange-round barriers and never
// perturb the search result.
//
// The portfolio result is bit-identical for any -workers value; the flag only
// trades wall-clock time for cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
)

func main() {
	var (
		profPath = flag.String("profile", "profile.json", "profile file written by profilecluster")
		seedAlg  = flag.String("seed-alg", "hybrid", "starting schedule: hybrid, or any name runbarrier's -alg takes (tree, dissemination, linear, rd, ring, FILE.json)")
		budget   = flag.Int("budget", 12000, "total mutation attempts across all restarts, split evenly between them")
		restarts = flag.Int("restarts", 3, "independent restarts")
		workers  = flag.Int("workers", 0, "worker goroutines for the restart portfolio (0 = all cores); does not affect the result")
		rngseed  = flag.Uint64("rngseed", 1, "search randomness seed")
		progress = flag.Bool("progress", false, "report exchange-round progress on stderr")
		out      = flag.String("o", "", "write the best schedule as JSON")

		synthP     = flag.Int("synthetic-p", 0, "search against the noise-free profile of a synthetic hierarchical cluster with this many ranks instead of -profile")
		synthNodes = flag.Int("synthetic-nodes", 0, "with -synthetic-p, node count of the synthetic cluster (0 = about one node per 32 ranks)")
		prune      = flag.Bool("cluster-prune", false, "bias mutation proposals by the profile's SSS cluster structure")
		batch      = flag.Int("batch", 0, "evaluate mutations in best-of-N batches (0 or 1 = single-candidate steps)")

		telemetryAddr = flag.String("telemetry", "", "serve search metrics over HTTP for the run's duration (e.g. 127.0.0.1:9090)")
	)
	flag.Parse()

	var pf *profile.Profile
	if *synthP > 0 {
		f, err := fabric.ScaleClusterFabric(*synthP, *synthNodes, 1)
		if err != nil {
			fatal(err)
		}
		pf = f.TrueProfile()
	} else {
		var err error
		pf, err = profile.Load(*profPath)
		if err != nil {
			fatal(err)
		}
	}
	pd := predict.New(pf)

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		addr, stop, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
	}

	seed, err := seedSchedule(pf, *seedAlg)
	if err != nil {
		fatal(err)
	}
	before := pd.Cost(seed)
	opts := search.AnnealOptions{
		Seed: *rngseed, Budget: *budget, Restarts: *restarts,
		Workers: *workers, BatchSize: *batch,
		Telemetry: reg,
	}
	if *prune {
		for _, leaf := range sss.Tree(pf, sss.Options{}).Leaves() {
			opts.Clusters = append(opts.Clusters, leaf.Ranks)
		}
		fmt.Fprintf(os.Stderr, "cluster-pruned proposals over %d clusters\n", len(opts.Clusters))
	}
	if *progress {
		opts.Progress = func(pr search.Progress) {
			fmt.Fprintf(os.Stderr, "round %d/%d: %d candidates examined, best %.1fµs (restart %d)\n",
				pr.Round, pr.Rounds, pr.Examined, pr.BestCost*1e6, pr.Elite)
		}
	}
	start := time.Now()
	res, err := search.Anneal(pd, seed, opts)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("seed %s: predicted %.1fµs\n", seed.Name, before*1e6)
	fmt.Printf("searched %d candidates: predicted %.1fµs (%.1f%% better)\n",
		res.Examined, res.Cost*1e6, 100*(before-res.Cost)/before)
	if elapsed > 0 {
		fmt.Printf("throughput: %.0f candidates/s over %s\n",
			float64(res.Examined)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	}
	fmt.Printf("result: %d stages, %d signals, barrier verified: %v\n",
		res.Schedule.NumStages(), res.Schedule.SignalCount(), res.Schedule.IsBarrier())

	if *out != "" {
		data, err := json.MarshalIndent(res.Schedule, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func seedSchedule(pf *profile.Profile, alg string) (*sched.Schedule, error) {
	if alg != "hybrid" {
		return sched.Named(alg, pf.P)
	}
	tuned, err := core.Tune(pf, core.Options{})
	if err != nil {
		return nil, err
	}
	return tuned.Schedule(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "searchbarrier:", err)
	os.Exit(1)
}
