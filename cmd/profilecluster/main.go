// Command profilecluster collects the topological profile of a simulated
// cluster — the first half of the paper's method (§III, Figure 1) — and
// stores it on disk for later prediction and tuning, decoupled from the
// machine.
//
// Usage:
//
//	profilecluster -cluster quad|hex|single -p N [-placement round-robin|block]
//	               [-paper] [-full] [-seed N] [-o profile.json] [-heatmap]
//	               [-profile-cache DIR]
//
// By default the light-weight protocol with structural replication (§IV.B)
// is used. -full probes the platform itself instead of trusting its spec:
// every pair up to 16 ranks; above that the hierarchy — found by screening
// the SSS cluster centres' links with zero-byte round trips — with every pair
// inside a cluster of at most 16 ranks, one link between each two sibling
// clusters' centres and every centre link whose screen stands out measured,
// and the rest estimated from them and spot-checked (the saved profile
// records which entries are estimates, and how many pairs were screened). -paper selects the paper's exact
// protocol (sizes 2^0..2^20, batches 1..32, 25 repetitions).
//
// With -profile-cache, profiles are keyed by a fingerprint of the cluster
// spec, rank count, placement, seed, and probe configuration: a repeat run
// under the same conditions loads the cached profile instead of measuring.
package main

import (
	"flag"
	"fmt"
	"os"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/topo"
)

func main() {
	var (
		cluster   = flag.String("cluster", "quad", "machine: quad, hex, or single (one 2x4 node)")
		p         = flag.Int("p", 0, "number of ranks (default: all cores)")
		placement = flag.String("placement", "round-robin", "rank placement: round-robin or block")
		paper     = flag.Bool("paper", false, "use the paper's full §IV.A protocol")
		full      = flag.Bool("full", false, "probe the links instead of replicating one pair per link class (§IV.B): every pair up to 16 ranks; above that the cluster-centre stars are screened with zero-byte round trips to find the hierarchy, and in-cluster pairs, cluster-centre links and links their screens single out are measured, the rest estimated and spot-checked")
		seed      = flag.Uint64("seed", 1, "fabric noise seed")
		out       = flag.String("o", "profile.json", "output path")
		heat      = flag.Bool("heatmap", false, "print O and L heat maps")
		cacheDir  = flag.String("profile-cache", "", "fingerprinted profile cache directory (reuse identical runs)")
	)
	flag.Parse()

	spec, err := topo.ClusterByName(*cluster)
	if err != nil {
		fatal(err)
	}
	if *p == 0 {
		*p = spec.TotalCores()
	}
	pl, err := topo.PlacementByName(*placement)
	if err != nil {
		fatal(err)
	}
	fab, err := fabric.New(spec, pl, *p, fabric.GigEParams(*seed))
	if err != nil {
		fatal(err)
	}

	cfg := probe.Default()
	if *paper {
		cfg = probe.Paper()
	}
	cfg.Replicate = !*full

	var (
		cache *profile.Cache
		fp    profile.Fingerprint
	)
	w := mpi.NewWorld(fab)
	if *cacheDir != "" {
		cache = &profile.Cache{Dir: *cacheDir}
		fp = core.ProfileFingerprint(w, cfg, fmt.Sprintf("placement=%s,seed=%d", pl.Name(), *seed))
	}
	pf, hit, err := cache.Load(fp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profilecluster: ignoring cache entry: %v\n", err)
	}
	if hit {
		fmt.Fprintf(os.Stderr, "profile cache hit (%s), skipping measurement\n", fp)
	} else {
		fmt.Fprintf(os.Stderr, "profiling %s, %d ranks, %s placement (replicate=%v)...\n",
			spec.Name, *p, pl.Name(), cfg.Replicate)
		pf, err = probe.Measure(w, cfg)
		if err != nil {
			fatal(err)
		}
		pf.Platform = fmt.Sprintf("%s, %s placement, seed %d", spec.Name, pl.Name(), *seed)
		if err := cache.Store(fp, pf); err != nil {
			fatal(err)
		}
	}
	if err := pf.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (P=%d, diameter %.1fµs)\n", *out, pf.P, pf.Diameter()*1e6)
	if *full {
		pairs, screened, spot, redone := pf.P*(pf.P-1)/2, 0, 0, 0
		if pv := pf.Provenance; pv != nil {
			screened, spot, redone = pv.Screened, pv.SpotChecked, pv.Remeasured
		}
		fmt.Printf("measured %d of %d pairs, %d screened, %d estimated, %d spot checks (%d blocks re-measured)\n",
			pf.MeasuredPairs(), pairs, screened, pairs-pf.MeasuredPairs(), spot, redone)
	}
	if *heat {
		fmt.Println(profile.HeatMap(pf.O, "O matrix [seconds]"))
		fmt.Println(profile.HeatMap(pf.L, "L matrix [seconds]"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profilecluster:", err)
	os.Exit(1)
}
