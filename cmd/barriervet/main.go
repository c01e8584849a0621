// Command barriervet statically analyses barrier schedules: instead of the
// yes/no answer of Schedule.IsBarrier, it reports structured findings — the
// exact knowledge pairs that never propagate (with the stage where
// propagation stalls and the shortest broken signal chain as a
// counterexample), signals and stages whose removal provably preserves
// Eq. 3 (priced against a profile when one is given), and structural lints.
// It can also syntax-check source emitted by the code generator.
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
//	barriervet -gen generated.go
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
		genPath   = flag.String("gen", "", "syntax-check a codegen-generated Go source file instead of analysing schedules")
	)
	flag.Parse()

	if *genPath != "" {
		src, err := os.ReadFile(*genPath)
		if err != nil {
			fatal(err)
		}
		if err := codegen.Check(src); err != nil {
			fmt.Fprintf(os.Stderr, "barriervet: %s: generated source does not parse: %v\n", *genPath, err)
			os.Exit(1)
		}
		fmt.Printf("%s: generated source parses cleanly\n", *genPath)
		if flag.NArg() == 0 {
			return
		}
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "barriervet: no schedule files given (try -h)")
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
		rep, err := vetFile(path, opts)
		if err != nil {
			fatal(err)
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

// vetFile decodes one schedule and analyses it. Schedules that decode
// structurally but fail sched validation (self-signals, zero stages) are
// still analysed, so the report can explain the failure; undecodable input
// is an I/O-level error.
func vetFile(path string, opts analyze.Options) (*analyze.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s sched.Schedule
	if err := json.Unmarshal(data, &s); err != nil && s.P <= 0 {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	// The gate's report is the product here, not its verdict: a schedule
	// that passes Eq. 3 and the structural checks also carries the
	// plan-level findings over its compiled form, and the exit status reads
	// the report's Error findings (a -k counterexample alone is exit 0).
	_, rep, _ := analyze.Vet(&s, opts)
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "barriervet:", err)
	os.Exit(2)
}
