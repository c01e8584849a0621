// Command experiments regenerates the paper's evaluation figures (Figures
// 5-11) on the simulated clusters and writes text tables and CSV series.
//
// Usage:
//
//	experiments [-fig all|5|6|7|8|9|10|11] [-step N] [-iters N] [-seed N]
//	            [-placement round-robin|block] [-congestion] [-out DIR]
//
// Figures 5/7 and 6/8 share their underlying sweep, which is computed once.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"topobarrier/internal/figures"
	"topobarrier/internal/topo"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: all, 5, 6, 7, 8, 9, 10, 11")
		step       = flag.Int("step", 2, "process-count stride of the sweeps (1 = every point)")
		iters      = flag.Int("iters", 15, "timed iterations per measurement")
		warmup     = flag.Int("warmup", 3, "warmup iterations per measurement")
		seed       = flag.Uint64("seed", 1, "fabric noise seed")
		placement  = flag.String("placement", "round-robin", "rank placement: round-robin or block")
		congestion = flag.Bool("congestion", false, "enable NIC serialisation (ablation)")
		out        = flag.String("out", "", "directory for CSV/text output (omit to print only)")
		svg        = flag.Bool("svg", false, "also write SVG line charts into -out")
	)
	flag.Parse()

	cfg := figures.Default(*seed)
	cfg.Step = *step
	cfg.Iters = *iters
	cfg.Warmup = *warmup
	cfg.Congestion = *congestion
	var err error
	if cfg.Placement, err = topo.PlacementByName(*placement); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *fig == "all" {
		for _, f := range []string{"5", "6", "7", "8", "9", "10", "11"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	var figs []*figures.Figure
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if want["5"] || want["7"] {
		vd, err := figures.Validation(cfg, topo.QuadCluster(), 64)
		if err != nil {
			fail(err)
		}
		if want["5"] {
			figs = append(figs, vd.ComparisonFigure("Figure 5"))
		}
		if want["7"] {
			figs = append(figs, vd.PerAlgorithmFigure("Figure 7"))
		}
	}
	if want["6"] || want["8"] {
		vd, err := figures.Validation(cfg, topo.HexCluster(), 120)
		if err != nil {
			fail(err)
		}
		if want["6"] {
			figs = append(figs, vd.ComparisonFigure("Figure 6"))
		}
		if want["8"] {
			figs = append(figs, vd.PerAlgorithmFigure("Figure 8"))
		}
	}
	if want["9"] {
		f, err := figures.Fig9(cfg)
		if err != nil {
			fail(err)
		}
		figs = append(figs, f)
	}
	if want["10"] {
		f, err := figures.Fig10(cfg)
		if err != nil {
			fail(err)
		}
		figs = append(figs, f)
	}
	if want["11"] {
		fa, err := figures.Fig11Quad(cfg)
		if err != nil {
			fail(err)
		}
		fb, err := figures.Fig11Hex(cfg)
		if err != nil {
			fail(err)
		}
		figs = append(figs, fa, fb)
	}

	if len(figs) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected")
		os.Exit(2)
	}

	for _, f := range figs {
		fmt.Println(f.Table())
		fmt.Println()
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fail(err)
			}
			base := strings.ToLower(strings.ReplaceAll(f.ID, " ", ""))
			if err := os.WriteFile(filepath.Join(*out, base+".txt"), []byte(f.Table()), 0o644); err != nil {
				fail(err)
			}
			if len(f.Series) > 0 {
				if err := os.WriteFile(filepath.Join(*out, base+".csv"), []byte(f.CSV()), 0o644); err != nil {
					fail(err)
				}
				if *svg {
					if err := os.WriteFile(filepath.Join(*out, base+".svg"), []byte(f.SVG(760, 480)), 0o644); err != nil {
						fail(err)
					}
				}
			}
		}
	}
}
