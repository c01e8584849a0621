// Package figures regenerates every figure of the paper's evaluation
// (Figures 5-11) on the simulated clusters: the model-validation sweeps, the
// single-node L-matrix heat map, the hybrid construction example, and the
// hybrid-vs-MPI performance comparison. Each figure is returned as labelled
// data series plus notes, renderable as an aligned text table or CSV.
package figures

import (
	"fmt"
	"strings"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/topo"
)

// Series is one labelled curve: Y seconds over X processes.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	// Notes carry shape observations (crossovers, ratios) extracted from the
	// data, mirroring the paper's discussion.
	Notes []string
	// Extra holds non-series content (heat maps, schedule dumps).
	Extra string
}

// Config controls the sweeps. The zero value is not valid; use Default.
type Config struct {
	// Seed drives all fabric noise.
	Seed uint64
	// Warmup and Iters control each barrier measurement.
	Warmup, Iters int
	// Step is the process-count stride of the sweeps (1 reproduces every
	// point of the paper's plots; 2 halves the cost).
	Step int
	// Placement maps ranks to cores; the paper's systems use round-robin.
	Placement topo.Placement
	// Congestion enables the NIC-serialisation ablation.
	Congestion bool
}

// Default returns the configuration used by the benchmark harness.
func Default(seed uint64) Config {
	return Config{
		Seed:      seed,
		Warmup:    3,
		Iters:     15,
		Step:      2,
		Placement: topo.RoundRobin{},
	}
}

// sweepProbe is the profiling protocol of every probed job: the default
// protocol in replicate mode, which keeps sweeps fast.
func sweepProbe() probe.Config {
	pc := probe.Default()
	pc.Replicate = true
	return pc
}

func (c Config) step() int {
	if c.Step <= 0 {
		return 1
	}
	return c.Step
}

// world builds a fresh simulated job.
func (c Config) world(spec topo.Spec, p int, seedOffset uint64) (*mpi.World, error) {
	f, err := fabric.New(spec, c.Placement, p, fabric.GigEParams(c.Seed+seedOffset))
	if err != nil {
		return nil, err
	}
	var opts []mpi.Option
	if c.Congestion {
		opts = append(opts, mpi.WithCongestion())
	}
	return mpi.NewWorld(f, opts...), nil
}

// jobProfile probes the platform of a p-rank job.
func (c Config) jobProfile(spec topo.Spec, p int, seedOffset uint64) (*profile.Profile, error) {
	w, err := c.world(spec, p, seedOffset)
	if err != nil {
		return nil, err
	}
	return probe.Measure(w, sweepProbe())
}

// measure times one barrier function on a fresh job.
func (c Config) measure(spec topo.Spec, p int, seedOffset uint64, b run.Func) (float64, error) {
	w, err := c.world(spec, p, seedOffset)
	if err != nil {
		return 0, err
	}
	m, err := run.Measure(w, b, c.Warmup, c.Iters)
	if err != nil {
		return 0, err
	}
	return m.Mean, nil
}

// sweep returns the process counts of a sweep over [2, maxP].
func (c Config) sweep(maxP int) []int {
	var ps []int
	for p := 2; p <= maxP; p += c.step() {
		ps = append(ps, p)
	}
	if ps[len(ps)-1] != maxP {
		ps = append(ps, maxP)
	}
	return ps
}

// Table renders the figure as an aligned text table in microseconds.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		fmt.Fprintf(&b, "%6s", "P")
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %18s", s.Label)
		}
		b.WriteByte('\n')
		for i := range f.Series[0].X {
			fmt.Fprintf(&b, "%6.0f", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, " %15.1fµs", s.Y[i]*1e6)
				} else {
					fmt.Fprintf(&b, " %18s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if f.Extra != "" {
		b.WriteByte('\n')
		b.WriteString(f.Extra)
	}
	return b.String()
}

// CSV renders the series data as a CSV document (seconds).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("p")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.Label, ",", ";"))
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
