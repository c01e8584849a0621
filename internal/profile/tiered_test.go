package profile

import (
	"math"
	"strings"
	"testing"

	"topobarrier/internal/mat"
)

// tieredSix is a profile of six ranks on two nodes of three cores whose O
// and L are read off tier tables: cells 0/1 cross-node (lower/higher rank
// first), 2/3 on-node, 4 co-seated ranks, which no pair of distinct paths
// reaches; so the cell is left O = L = 0, a value Validate refuses where a
// pair does fall in it. Rank 5 shares rank 4's seat when shared is set, and
// edit, when given, changes the tables before they are handed over.
func tieredSix(shared bool, edit func(o, l, od []float64)) *Profile {
	paths := []int{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2}
	if shared {
		paths[11] = 1
	}
	t := mat.NewTiers(2, paths)
	o := []float64{50e-6, 60e-6, 2e-6, 3e-6, 0, 0}
	l := []float64{8e-6, 9e-6, 0.5e-6, 0.6e-6, 0, 0}
	od, ld := make([]float64, 6), make([]float64, 6)
	for i := range od {
		od[i] = 1e-6
	}
	if edit != nil {
		edit(o, l, od)
	}
	return &Profile{Platform: "six", P: 6, O: mat.NewTiered(t, o, od), L: mat.NewTiered(t, l, ld)}
}

// materialised copies pr with every row of O and L written out.
func materialised(pr *Profile) *Profile {
	rows := func(m *mat.Costs) [][]float64 {
		out := make([][]float64, m.N())
		for i := range out {
			out[i] = m.CopyRow(make([]float64, m.N()), i)
		}
		return out
	}
	return &Profile{Platform: pr.Platform, P: pr.P, O: mat.CostsFromRows(rows(pr.O)), L: mat.CostsFromRows(rows(pr.L))}
}

// TestValidateTieredErrorTexts holds Validate on tier-derived rows to the
// dense scan's verdict: the same message, naming the first offending pair in
// row-major order, whether the fault is a tier cell, a diagonal entry or a
// written entry, and whatever the form of the rows before it.
func TestValidateTieredErrorTexts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		shared bool
		edit   func(o, l, od []float64)
		write  func(pr *Profile)
		want   string // "" = valid
	}{
		{name: "clean, the co-seated cell unreached", want: ""},
		{name: "co-seated cell reached", shared: true, want: "pair (4,5) has O = L = 0"},
		{name: "NaN O cross-node, higher first", edit: func(o, l, od []float64) { o[1] = nan }, want: "pair (3,0) has O = NaN"},
		{name: "+Inf L cross-node, lower first", edit: func(o, l, od []float64) { l[0] = inf }, want: "pair (0,3) has O = 5e-05, L = +Inf"},
		{name: "negative L on-node", edit: func(o, l, od []float64) { l[2] = -1e-6 }, want: "negative cost at (0,1)"},
		{name: "O = L = 0 on-node, higher first", edit: func(o, l, od []float64) { o[3], l[3] = 0, 0 }, want: "pair (1,0) has O = L = 0"},
		{name: "Inf diagonal", edit: func(o, l, od []float64) { od[4] = inf }, want: "pair (4,4) has O = +Inf"},
		{name: "negative diagonal", edit: func(o, l, od []float64) { od[2] = -1 }, want: "negative cost at (2,2)"},
		{name: "written fault before a tier fault",
			edit:  func(o, l, od []float64) { o[1] = nan },
			write: func(pr *Profile) { pr.O.Set(1, 5, -1) }, want: "negative cost at (1,5)"},
		{name: "tier fault before a written row",
			edit:  func(o, l, od []float64) { o[2] = -1 },
			write: func(pr *Profile) { pr.L.Set(4, 5, nan) }, want: "negative cost at (0,1)"},
		{name: "written row cures nothing else",
			edit:  func(o, l, od []float64) { o[3], l[3] = 0, 0 },
			write: func(pr *Profile) { pr.O.Set(1, 0, 1e-6) }, want: "pair (2,0) has O = L = 0"},
	}
	for _, c := range cases {
		pr := tieredSix(c.shared, c.edit)
		if c.write != nil {
			c.write(pr)
		}
		got, ref := errText(pr.Validate()), errText(materialised(pr).Validate())
		if got != ref {
			t.Fatalf("%s: tiered rows say %q, materialised rows %q", c.name, got, ref)
		}
		if c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Fatalf("%s: Validate() = %q, want it to contain %q", c.name, got, c.want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSetOnDerivedRowStaysLocal writes single entries into tier-derived rows,
// the diagonal among them, and checks that each write changed that entry
// alone and wrote out its own row only.
func TestSetOnDerivedRowStaysLocal(t *testing.T) {
	pr := tieredSix(false, nil)
	want := materialised(pr)
	for _, w := range []struct {
		m    func(*Profile) *mat.Costs
		i, j int
		v    float64
	}{
		{func(p *Profile) *mat.Costs { return p.O }, 2, 4, 70e-6},
		{func(p *Profile) *mat.Costs { return p.L }, 5, 0, 1e-6},
		{func(p *Profile) *mat.Costs { return p.O }, 2, 2, 0.5e-6},
		{func(p *Profile) *mat.Costs { return p.O }, 2, 0, 0.25e-6},
	} {
		w.m(pr).Set(w.i, w.j, w.v)
		w.m(want).Set(w.i, w.j, w.v)
		for i := 0; i < pr.P; i++ {
			for _, m := range [][2]*mat.Costs{{pr.O, want.O}, {pr.L, want.L}} {
				for j := 0; j < pr.P; j++ {
					if math.Float64bits(m[0].At(i, j)) != math.Float64bits(m[1].At(i, j)) {
						t.Fatalf("after Set(%d,%d): (%d,%d) = %v, want %v", w.i, w.j, i, j, m[0].At(i, j), m[1].At(i, j))
					}
				}
			}
		}
	}
	for i := 0; i < pr.P; i++ {
		if wroteO, wroteL := i == 2, i == 5; (pr.O.Row(i) != nil) != wroteO || (pr.L.Row(i) != nil) != wroteL {
			t.Fatalf("row %d: O written out %v, L %v; want %v, %v", i, pr.O.Row(i) != nil, pr.L.Row(i) != nil, wroteO, wroteL)
		}
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
}
