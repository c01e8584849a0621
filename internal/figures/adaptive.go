package figures

import (
	"fmt"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

// Fig9 regenerates Figure 9: the L-matrix structure of one dual quad-core
// node, profiled pair by pair (full protocol, no structural replication) and
// rendered as a heat map. The paper's observation is the two darker 4×4
// on-chip blocks, about a factor 4 cheaper than off-chip messages.
func Fig9(cfg Config) (*Figure, error) {
	spec := topo.SingleNode(2, 4, 2)
	w, err := cfg.world(spec, 8, 9)
	if err != nil {
		return nil, err
	}
	// The default protocol without replication measures all 28 pairs of the
	// node individually.
	pf, err := probe.Measure(w, probe.Default())
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: "Figure 9", Title: "L matrix structure of one dual quad-core node"}
	f.Extra = profile.HeatMap(pf.L, "L matrix, 2x4 cores [seconds]")
	// On-chip vs off-chip ratio, mirroring the paper's "around a factor 4".
	var on, off []float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if (i < 4) == (j < 4) {
				on = append(on, pf.L.At(i, j))
			} else {
				off = append(off, pf.L.At(i, j))
			}
		}
	}
	ratio := mean(off) / mean(on)
	f.Notes = append(f.Notes,
		fmt.Sprintf("mean off-chip L %.2gs vs on-chip L %.2gs: factor %.1f (paper: ~4)", mean(off), mean(on), ratio))
	return f, nil
}

// Fig10 regenerates Figure 10: the construction of a hierarchical customized
// barrier for 22 processes on 3 nodes of the quad cluster with round-robin
// mapping. The Extra field carries the clustering, the greedy choices and
// the resulting stage matrices.
func Fig10(cfg Config) (*Figure, error) {
	spec := topo.QuadCluster()
	const p = 22
	pf, err := cfg.jobProfile(spec, p, 10)
	if err != nil {
		return nil, err
	}
	tuned, err := core.Tune(pf, core.Options{Clustering: sss.Options{MaxDepth: 1}})
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: "Figure 10", Title: "Construction of a hierarchical, customized barrier (22 ranks, 3 nodes, round-robin)"}
	f.Extra = "clusters: " + tuned.Tree.String() + "\n\n" +
		tuned.Result.Describe() + "\n" + tuned.Schedule().String()
	f.Notes = append(f.Notes,
		fmt.Sprintf("%d stages, %d signals, predicted %.1fµs",
			tuned.Schedule().NumStages(), tuned.Schedule().SignalCount(), tuned.PredictedCost()*1e6))
	return f, nil
}

// Fig11 regenerates Figure 11: generated hybrid barriers versus the MPI
// (binomial tree) barrier on both clusters. Fig11Quad sweeps the dual
// quad-core system to 64 processes, Fig11Hex the dual hex-core system to
// 120.
func Fig11Quad(cfg Config) (*Figure, error) {
	return fig11(cfg, topo.QuadCluster(), 64, "Figure 11A")
}

// Fig11Hex is the dual hex-core panel of Figure 11.
func Fig11Hex(cfg Config) (*Figure, error) {
	return fig11(cfg, topo.HexCluster(), 120, "Figure 11B")
}

func fig11(cfg Config, spec topo.Spec, maxP int, id string) (*Figure, error) {
	f := &Figure{ID: id, Title: fmt.Sprintf("Performance of generated codes, %s", spec.Name)}
	ps := cfg.sweep(maxP)
	xs := make([]float64, len(ps))
	mpiY := make([]float64, len(ps))
	hybY := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = float64(p)
		pf, err := cfg.jobProfile(spec, p, uint64(p)*13+3)
		if err != nil {
			return nil, fmt.Errorf("figures: profiling P=%d: %w", p, err)
		}
		tuned, err := core.Tune(pf, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("figures: tuning P=%d: %w", p, err)
		}
		if hybY[i], err = cfg.measure(spec, p, uint64(p)*17+5, tuned.Func()); err != nil {
			return nil, err
		}
		if mpiY[i], err = cfg.measure(spec, p, uint64(p)*17+5, baseline.Tree); err != nil {
			return nil, err
		}
	}
	f.Series = append(f.Series,
		Series{Label: "MPI", X: xs, Y: mpiY},
		Series{Label: "Hybrid", X: xs, Y: hybY},
	)
	// Shape notes: worst-case ratio and largest-case speedup.
	worst, bestSpeedup := 0.0, 0.0
	for i := range ps {
		r := hybY[i] / mpiY[i]
		if r > worst {
			worst = r
		}
		if s := mpiY[i] / hybY[i]; s > bestSpeedup {
			bestSpeedup = s
		}
	}
	last := len(ps) - 1
	f.Notes = append(f.Notes,
		fmt.Sprintf("hybrid/MPI worst-case ratio %.2f (paper: similar at worst)", worst),
		fmt.Sprintf("best speedup %.2fx; at P=%d: MPI %.0fµs vs hybrid %.0fµs (paper: ~2x at the largest hex sizes)",
			bestSpeedup, ps[last], mpiY[last]*1e6, hybY[last]*1e6))
	return f, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
