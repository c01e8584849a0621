package figures

import (
	"strings"
	"testing"

	"topobarrier/internal/topo"
)

// fastConfig keeps figure tests quick: coarse sweep, few iterations.
func fastConfig(step int) Config {
	cfg := Default(1)
	cfg.Step = step
	cfg.Iters = 6
	cfg.Warmup = 2
	return cfg
}

func TestValidationShapesQuadCluster(t *testing.T) {
	cfg := fastConfig(6)
	vd, err := Validation(cfg, topo.QuadCluster(), 64)
	if err != nil {
		t.Fatal(err)
	}
	last := len(vd.Ps) - 1
	if vd.Ps[last] != 64 {
		t.Fatalf("sweep does not reach 64: %v", vd.Ps)
	}
	// Headline shapes of Figures 5/7: at full scale the linear barrier is
	// the slowest measured algorithm, and the tree beats dissemination on a
	// multi-node machine (the non-power-of-two sweep points make this the
	// dominant regime).
	lin, dis, tree := vd.Meas["linear"][last], vd.Meas["dissemination"][last], vd.Meas["tree"][last]
	if !(lin > tree) {
		t.Fatalf("linear %.0fµs not slower than tree %.0fµs at P=64", lin*1e6, tree*1e6)
	}
	if dis <= 0 || tree <= 0 {
		t.Fatalf("non-positive measurements")
	}
	// Predictions must reproduce the same ordering at full scale.
	plin, ptree := vd.Pred["linear"][last], vd.Pred["tree"][last]
	if !(plin > ptree) {
		t.Fatalf("prediction does not reproduce linear > tree: %g vs %g", plin, ptree)
	}
	// Costs grow with scale: the last linear point must exceed the first.
	if vd.Meas["linear"][0] >= lin {
		t.Fatalf("linear cost does not grow with P")
	}
}

func TestValidationPredictionTracksMeasurement(t *testing.T) {
	cfg := fastConfig(10)
	vd, err := Validation(cfg, topo.QuadCluster(), 64)
	if err != nil {
		t.Fatal(err)
	}
	// The model is useful when predictions are within a small factor of
	// measurements (the paper reports ~200µs absolute error).
	for _, alg := range []string{"linear", "dissemination", "tree"} {
		for i := range vd.Ps {
			p, m := vd.Pred[alg][i], vd.Meas[alg][i]
			if p <= 0 || m <= 0 {
				t.Fatalf("%s at P=%d: non-positive (%g, %g)", alg, vd.Ps[i], p, m)
			}
			ratio := p / m
			if ratio < 0.25 || ratio > 4 {
				t.Fatalf("%s at P=%d: prediction %0.fµs vs measurement %0.fµs (ratio %.2f)",
					alg, vd.Ps[i], p*1e6, m*1e6, ratio)
			}
		}
	}
}

func TestComparisonAndPerAlgorithmFigures(t *testing.T) {
	cfg := fastConfig(16)
	vd, err := Validation(cfg, topo.QuadCluster(), 32)
	if err != nil {
		t.Fatal(err)
	}
	cmp := vd.ComparisonFigure("Figure 5")
	if len(cmp.Series) != 6 {
		t.Fatalf("comparison series = %d", len(cmp.Series))
	}
	per := vd.PerAlgorithmFigure("Figure 7")
	if len(per.Series) != 6 {
		t.Fatalf("per-algorithm series = %d", len(per.Series))
	}
	tbl := cmp.Table()
	if !strings.Contains(tbl, "Figure 5") || !strings.Contains(tbl, "µs") {
		t.Fatalf("table rendering broken:\n%s", tbl)
	}
	csv := cmp.CSV()
	if !strings.HasPrefix(csv, "p,") || len(strings.Split(strings.TrimSpace(csv), "\n")) != len(vd.Ps)+1 {
		t.Fatalf("csv rendering broken:\n%s", csv)
	}
	if len(cmp.Notes) == 0 {
		t.Fatalf("no shape notes")
	}
}

func TestFig9HeatMapAndRatio(t *testing.T) {
	f, err := Fig9(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Extra, "L matrix") {
		t.Fatalf("heat map missing:\n%s", f.Extra)
	}
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "factor") {
		t.Fatalf("ratio note missing: %v", f.Notes)
	}
	// The note must report a ratio in the paper's ballpark (~4).
	if !strings.Contains(f.Notes[0], "factor 3") && !strings.Contains(f.Notes[0], "factor 4") &&
		!strings.Contains(f.Notes[0], "factor 5") {
		t.Fatalf("off/on-chip ratio far from paper's ~4: %s", f.Notes[0])
	}
}

func TestFig10ConstructionDump(t *testing.T) {
	f, err := Fig10(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clusters:", "root", "S0 ="} {
		if !strings.Contains(f.Extra, want) {
			t.Fatalf("construction dump missing %q:\n%s", want, f.Extra)
		}
	}
	// Round-robin over 3 nodes: the cluster of rank 0 is {0,3,6,...}.
	if !strings.Contains(f.Extra, "[0 3 6 9 12 15 18 21]") {
		t.Fatalf("expected round-robin node cluster in dump:\n%s", f.Extra)
	}
}

func TestFig11QuadShape(t *testing.T) {
	cfg := fastConfig(8)
	f, err := fig11(cfg, topo.QuadCluster(), 64, "Figure 11A")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	mpi, hyb := f.Series[0].Y, f.Series[1].Y
	// Headline claim: hybrid no worse than ~10% anywhere, and strictly
	// faster at the largest size.
	for i := range mpi {
		if hyb[i] > 1.15*mpi[i] {
			t.Fatalf("P=%g: hybrid %.0fµs much slower than MPI %.0fµs",
				f.Series[0].X[i], hyb[i]*1e6, mpi[i]*1e6)
		}
	}
	last := len(mpi) - 1
	if hyb[last] >= mpi[last] {
		t.Fatalf("no speedup at P=64: hybrid %.0fµs vs MPI %.0fµs", hyb[last]*1e6, mpi[last]*1e6)
	}
}

func TestSweepIncludesEndpoint(t *testing.T) {
	cfg := fastConfig(7)
	ps := cfg.sweep(20)
	if ps[0] != 2 || ps[len(ps)-1] != 20 {
		t.Fatalf("sweep = %v", ps)
	}
	cfg.Step = 0
	if got := cfg.step(); got != 1 {
		t.Fatalf("zero step not defaulted: %d", got)
	}
}

func TestSVGRendering(t *testing.T) {
	f := &Figure{
		ID:    "Figure X",
		Title: "test <plot> & co",
		Series: []Series{
			{Label: "A", X: []float64{2, 4, 8}, Y: []float64{1e-6, 2e-6, 4e-6}},
			{Label: "B", X: []float64{2, 4, 8}, Y: []float64{2e-6, 3e-6, 5e-6}},
		},
	}
	svg := f.SVG(640, 420)
	for _, want := range []string{"<svg", "polyline", "Figure X", "&lt;plot&gt; &amp; co", "# of processes", "µs"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q:\n%.400s", want, svg)
		}
	}
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Fatalf("polyline count = %d", got)
	}
	if got := strings.Count(svg, "<circle"); got != 6 {
		t.Fatalf("marker count = %d", got)
	}
	// Degenerate figures must not divide by zero.
	empty := &Figure{ID: "E", Title: "empty"}
	if !strings.Contains(empty.SVG(100, 100), "<svg") {
		t.Fatalf("empty svg broken")
	}
	single := &Figure{ID: "S", Title: "one point", Series: []Series{{Label: "x", X: []float64{3}, Y: []float64{1e-6}}}}
	if !strings.Contains(single.SVG(640, 420), "<circle") {
		t.Fatalf("single-point svg broken")
	}
}

func TestFigureWrappersSmoke(t *testing.T) {
	cfg := fastConfig(31)
	cfg.Iters = 4
	// Figures 5–8 are the two views of one validation sweep per cluster, as
	// cmd/experiments assembles them.
	validation := func(spec topo.Spec, maxP int, comparison, panels string) []*Figure {
		vd, err := Validation(cfg, spec, maxP)
		if err != nil {
			t.Fatal(err)
		}
		return []*Figure{vd.ComparisonFigure(comparison), vd.PerAlgorithmFigure(panels)}
	}
	fig11 := func(gen func(Config) (*Figure, error)) *Figure {
		f, err := gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, f := range append(validation(topo.QuadCluster(), 64, "Figure 5", "Figure 7"), fig11(Fig11Quad)) {
		if len(f.Series) == 0 || len(f.Series[0].X) == 0 {
			t.Fatalf("%s empty", f.ID)
		}
	}
	cfg.Step = 59
	for _, f := range append(validation(topo.HexCluster(), 120, "Figure 6", "Figure 8"), fig11(Fig11Hex)) {
		if len(f.Series) == 0 {
			t.Fatalf("%s empty", f.ID)
		}
	}
}
