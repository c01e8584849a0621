// Command predictbarrier evaluates barrier algorithms against a stored
// topological profile, printing the predicted critical-path cost of each —
// the low-cost candidate evaluation the paper's Figure 1 performs "without
// occupying the target machine".
//
// Usage:
//
//	predictbarrier -profile profile.json [-alg all|linear|dissemination|tree|ring|recursive-doubling]
//	               [-policy eq1-first-stage|always-eq1|always-eq2]
package main

import (
	"flag"
	"fmt"
	"os"

	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
)

func main() {
	var (
		profPath = flag.String("profile", "profile.json", "profile file written by profilecluster")
		alg      = flag.String("alg", "all", "algorithm to predict, or all")
		policy   = flag.String("policy", "eq1-first-stage", "cost policy: eq1-first-stage, always-eq1, always-eq2")
	)
	flag.Parse()

	pf, err := profile.Load(*profPath)
	if err != nil {
		fatal(err)
	}
	pd := predict.New(pf)
	switch *policy {
	case "eq1-first-stage":
		pd.Policy = predict.FirstStageEq1
	case "always-eq1":
		pd.Policy = predict.AlwaysEq1
	case "always-eq2":
		pd.Policy = predict.AlwaysEq2
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	names := []string{*alg}
	if *alg == "all" {
		names = []string{"dissemination", "linear", "recursive-doubling", "ring", "tree"}
	}

	fmt.Printf("platform: %s (P=%d), policy %s\n", pf.Platform, pf.P, pd.Policy)
	for _, n := range names {
		s, err := sched.Named(n, pf.P)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %2d stages %5d signals predicted %9.1fµs\n",
			n, s.NumStages(), s.SignalCount(), pd.Cost(s)*1e6)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predictbarrier:", err)
	os.Exit(1)
}
