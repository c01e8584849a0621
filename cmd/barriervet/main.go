// Command barriervet statically analyses barrier schedules: instead of the
// yes/no answer of Schedule.IsBarrier, it reports structured findings — the
// exact knowledge pairs that never propagate (with the stage where
// propagation stalls and the shortest broken signal chain as a
// counterexample), signals and stages whose removal provably preserves
// Eq. 3 (priced against a profile when one is given), and structural lints.
//
// -emit is the paper's code generator (§VII.C) behind the same gate: a
// schedule that passes is written out as hard-coded Go source — a specialised
// function with no matrix scanning and no no-op stages — and one that fails
// writes nothing.
//
// It also model-checks: -k runs the fault-resilience certifier (is the
// schedule still a barrier for the survivors when any k ranks go silent?),
// -critical-edges names every send whose loss alone breaks Eq. 3, and every
// schedule that compiles cleanly additionally gets the plan-level protocol
// checks (matched sends/receives, tag budget, rendezvous cycles) over its
// compiled form.
//
// Usage:
//
//	barriervet [-json] [-profile prof.json] [-threshold N] [-witnesses N]
//	           [-noredundancy] [-k N] [-critical-edges] schedule.json...
//	barriervet -emit barrier.go [-pkg NAME] [-func NAME] schedule.json
//
// Exit status: 0 when every schedule is clean of Error-severity findings,
// 1 when any schedule fails, 2 on usage or I/O errors. A resilience
// counterexample is Warning severity — a non-resilient schedule is still a
// correct barrier — so it does not by itself exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"topobarrier/internal/analyze"
	"topobarrier/internal/codegen"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
)

func main() {
	var (
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON reports")
		profPath  = flag.String("profile", "", "profile written by profilecluster; enables predicted cost deltas")
		threshold = flag.Int("threshold", 0, "fan-in/fan-out hotspot threshold (0 = default 8, negative disables)")
		witnesses = flag.Int("witnesses", 0, "max stalled-pair witnesses per schedule (0 = default 5)")
		noRedund  = flag.Bool("noredundancy", false, "skip the greedy redundancy minimisation")
		certifyK  = flag.Int("k", 0, "certify k-fault resilience: prove the schedule survives any k ranks going silent, or report a minimal counterexample")
		critEdges = flag.Bool("critical-edges", false, "report every send whose loss alone breaks the barrier, most damaging first")
		emit      = flag.String("emit", "", "write the schedule as hard-coded Go source to this file when it passes (one schedule only)")
		pkg       = flag.String("pkg", "barrier", "with -emit, package name of the generated file")
		fn        = flag.String("func", "", "with -emit, function name (default derived from the schedule name)")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "barriervet: no schedule files given (try -h)")
		os.Exit(2)
	}
	if *emit != "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "barriervet: -emit generates one schedule; give exactly one file")
		os.Exit(2)
	}

	opts := analyze.Options{
		FanThreshold:   *threshold,
		MaxWitnesses:   *witnesses,
		SkipRedundancy: *noRedund,
		CertifyK:       *certifyK,
		CriticalEdges:  *critEdges,
	}
	if *profPath != "" {
		pf, err := profile.Load(*profPath)
		if err != nil {
			fatal(err)
		}
		opts.Predictor = predict.New(pf)
	}

	failed := false
	var reports []*analyze.Report
	for _, path := range flag.Args() {
		s, rep, err := vetFile(path, opts)
		if err != nil {
			fatal(err)
		}
		if *emit != "" && rep.Err() == nil {
			src, err := codegen.Generate(s, codegen.Options{Package: *pkg, FuncName: *fn})
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*emit, src, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *emit, len(src))
		}
		reports = append(reports, rep)
		if rep.Err() != nil {
			failed = true
		}
		if !*asJSON {
			fmt.Print(rep)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(reports) == 1 {
			if err := enc.Encode(reports[0]); err != nil {
				fatal(err)
			}
		} else if err := enc.Encode(reports); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// vetFile decodes one schedule and analyses it, returning both. Schedules
// that decode structurally but fail sched validation (self-signals, zero
// stages) are still analysed, so the report can explain the failure;
// undecodable input is an I/O-level error.
func vetFile(path string, opts analyze.Options) (*sched.Schedule, *analyze.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s sched.Schedule
	if err := json.Unmarshal(data, &s); err != nil && s.P <= 0 {
		return nil, nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	// The gate's report is the product here, not its verdict: a schedule
	// that passes Eq. 3 and the structural checks also carries the
	// plan-level findings over its compiled form, and the exit status reads
	// the report's Error findings (a -k counterexample alone is exit 0).
	_, rep, _ := analyze.Vet(&s, opts)
	return &s, rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "barriervet:", err)
	os.Exit(2)
}
