package figures

import (
	"fmt"

	"topobarrier/internal/predict"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

// ValidationData holds the §VI model-validation sweep of one cluster: the
// predicted and measured execution times of the linear, dissemination and
// tree barriers over a range of process counts.
type ValidationData struct {
	Spec topo.Spec
	Ps   []int
	// Pred and Meas map algorithm name → seconds per sweep point.
	Pred map[string][]float64
	Meas map[string][]float64
}

var validationAlgorithms = []struct {
	name string
	gen  func(int) *sched.Schedule
}{
	{"linear", sched.Linear},
	{"dissemination", sched.Dissemination},
	{"tree", sched.Tree},
}

// Validation runs the §VI experiment on one cluster up to maxP processes.
// For every P it probes a topological profile, predicts the three barrier
// costs from the profile, and measures the same matrix encodings compiled to
// plans.
func Validation(cfg Config, spec topo.Spec, maxP int) (*ValidationData, error) {
	vd := &ValidationData{
		Spec: spec,
		Pred: map[string][]float64{},
		Meas: map[string][]float64{},
	}
	vd.Ps = cfg.sweep(maxP)
	for _, p := range vd.Ps {
		pf, err := cfg.jobProfile(spec, p, uint64(p))
		if err != nil {
			return nil, fmt.Errorf("figures: profiling P=%d: %w", p, err)
		}
		pd := predict.New(pf)
		for _, alg := range validationAlgorithms {
			s := alg.gen(p)
			vd.Pred[alg.name] = append(vd.Pred[alg.name], pd.Cost(s))
			pl, err := run.NewPlan(s)
			if err != nil {
				return nil, fmt.Errorf("figures: compiling %s at P=%d: %w", alg.name, p, err)
			}
			mean, err := cfg.measure(spec, p, uint64(p)*31+7, pl.Func())
			if err != nil {
				return nil, fmt.Errorf("figures: measuring %s at P=%d: %w", alg.name, p, err)
			}
			vd.Meas[alg.name] = append(vd.Meas[alg.name], mean)
		}
	}
	return vd, nil
}

func (vd *ValidationData) xs() []float64 {
	xs := make([]float64, len(vd.Ps))
	for i, p := range vd.Ps {
		xs[i] = float64(p)
	}
	return xs
}

// ComparisonFigure renders the data the way Figures 5 and 6 do: panel A the
// predicted times of D/T/L, panel B the measured times.
func (vd *ValidationData) ComparisonFigure(id string) *Figure {
	f := &Figure{ID: id, Title: fmt.Sprintf("Predicted vs measured barrier times, %s", vd.Spec.Name)}
	xs := vd.xs()
	for _, alg := range validationAlgorithms {
		f.Series = append(f.Series, Series{Label: alg.name[:1] + " predicted", X: xs, Y: vd.Pred[alg.name]})
	}
	for _, alg := range validationAlgorithms {
		f.Series = append(f.Series, Series{Label: alg.name[:1] + " measured", X: xs, Y: vd.Meas[alg.name]})
	}
	f.Notes = vd.shapeNotes()
	return f
}

// PerAlgorithmFigure renders the data the way Figures 7 and 8 do: per
// algorithm, measured superposed on predicted.
func (vd *ValidationData) PerAlgorithmFigure(id string) *Figure {
	f := &Figure{ID: id, Title: fmt.Sprintf("Individual barriers, measured vs predicted, %s", vd.Spec.Name)}
	xs := vd.xs()
	for _, alg := range validationAlgorithms {
		f.Series = append(f.Series,
			Series{Label: alg.name + " meas", X: xs, Y: vd.Meas[alg.name]},
			Series{Label: alg.name + " pred", X: xs, Y: vd.Pred[alg.name]},
		)
	}
	f.Notes = vd.shapeNotes()
	return f
}

// shapeNotes extracts the qualitative observations the paper discusses.
func (vd *ValidationData) shapeNotes() []string {
	var notes []string
	last := len(vd.Ps) - 1
	if last < 0 {
		return nil
	}
	notes = append(notes, fmt.Sprintf("at P=%d: measured linear %.0fµs, dissemination %.0fµs, tree %.0fµs",
		vd.Ps[last], vd.Meas["linear"][last]*1e6, vd.Meas["dissemination"][last]*1e6, vd.Meas["tree"][last]*1e6))
	// Rank-order agreement between prediction and measurement per point.
	agree := 0
	for i := range vd.Ps {
		if rankOrder(vd.Pred, i) == rankOrder(vd.Meas, i) {
			agree++
		}
	}
	notes = append(notes, fmt.Sprintf("prediction reproduces the measured algorithm ranking at %d/%d sweep points", agree, len(vd.Ps)))
	// Mean absolute prediction error.
	var errSum float64
	var n int
	for _, alg := range validationAlgorithms {
		for i := range vd.Ps {
			d := vd.Pred[alg.name][i] - vd.Meas[alg.name][i]
			if d < 0 {
				d = -d
			}
			errSum += d
			n++
		}
	}
	notes = append(notes, fmt.Sprintf("mean absolute prediction error %.0fµs (the paper reports ~200µs)", errSum/float64(n)*1e6))
	return notes
}

// rankOrder returns the algorithm ordering (fastest first) at sweep point i
// as a string key.
func rankOrder(m map[string][]float64, i int) string {
	names := []string{"linear", "dissemination", "tree"}
	// Insertion sort of the three names by value.
	for a := 1; a < len(names); a++ {
		for b := a; b > 0 && m[names[b]][i] < m[names[b-1]][i]; b-- {
			names[b], names[b-1] = names[b-1], names[b]
		}
	}
	return names[0] + "<" + names[1] + "<" + names[2]
}
