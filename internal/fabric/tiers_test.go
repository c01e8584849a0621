package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

// denseTrueProfile is the oracle filled the way it was before it kept the
// hierarchy: P² entries of each matrix, every one written from the pair's
// link class. It is the reference TrueProfile is held to bit for bit.
func denseTrueProfile(f *Fabric) *profile.Profile {
	p := len(f.cores)
	o, l := make([][]float64, p), make([][]float64, p)
	for i, si := range f.seats {
		o[i], l[i] = make([]float64, p), make([]float64, p)
		for j, sj := range f.seats {
			links := &f.links
			if f.cores[i] > f.cores[j] {
				links = &f.skewed
			}
			lk := &links[si.ClassTo(sj)]
			o[i][j], l[i][j] = lk.Alpha, lk.Lambda
		}
		o[i][i], l[i][i] = f.params.SelfOverhead, 0
	}
	return &profile.Profile{Platform: f.spec.Name + " (oracle)", P: p, O: mat.CostsFromRows(o), L: mat.CostsFromRows(l)}
}

// stacked is a placement that pins ranks to the listed cores as they are,
// repeats included: an oversubscribed job, whose co-seated ranks are joined
// by the Self link class.
type stacked []int

func (stacked) Name() string                           { return "stacked" }
func (s stacked) Assign(topo.Spec, int) ([]int, error) { return s, nil }

// oracleCases are the fabrics the tier-derived oracle is checked on: the
// ledger's P=8 platform, the paper's cluster round-robin, the ledger's
// P=1024 cluster, an oversubscribed job and skewed links.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	skewed := GigEParams(1)
	skewed.DirectionSkew = 0.5
	self := GigEParams(1)
	self.Classes[topo.Self] = Link{}
	var twice stacked
	for c := 0; c < 12; c++ {
		twice = append(twice, c, c)
	}
	p8 := topo.Spec{Name: "2x quad-core", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4, CacheGroup: 2}
	cases := []struct {
		name   string
		spec   topo.Spec
		pl     topo.Placement
		p      int
		params Params
	}{
		{"p8-block", p8, topo.Block{}, 8, GigEParams(1)},
		{"quad-rr-32", topo.QuadCluster(), topo.RoundRobin{}, 32, GigEParams(1)},
		{"quad-rr-64", topo.QuadCluster(), topo.RoundRobin{}, 64, GigEParams(1)},
		{"scale-1024", ScaleClusterSpec(1024, 32), topo.Block{}, 1024, GigEParams(1)},
		{"oversubscribed-24", topo.QuadCluster(), twice, 24, self},
		{"skewed-quad-rr-32", topo.QuadCluster(), topo.RoundRobin{}, 32, skewed},
		{"skewed-scale-128", ScaleClusterSpec(128, 4), topo.Block{}, 128, skewed},
		{"hex-no-cache-rr-40", topo.HexCluster(), topo.RoundRobin{}, 40, GigEParams(1)},
	}
	var out []oracleCase
	for _, c := range cases {
		f, err := New(c.spec, c.pl, c.p, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, oracleCase{c.name, f})
	}
	return out
}

type oracleCase struct {
	name string
	f    *Fabric
}

// TestTrueProfileBitIdentical holds every entry of the tier-derived oracle to
// the dense fill bit for bit, and checks that building it wrote no row.
func TestTrueProfileBitIdentical(t *testing.T) {
	for _, c := range oracleCases(t) {
		name, f := c.name, c.f
		got, want := f.TrueProfile(), denseTrueProfile(f)
		for i := 0; i < f.P(); i++ {
			if got.O.Row(i) != nil || got.L.Row(i) != nil {
				t.Fatalf("%s: row %d materialised by TrueProfile", name, i)
			}
			for j := 0; j < f.P(); j++ {
				if math.Float64bits(got.O.At(i, j)) != math.Float64bits(want.O.At(i, j)) ||
					math.Float64bits(got.L.At(i, j)) != math.Float64bits(want.L.At(i, j)) {
					t.Fatalf("%s: (%d,%d) = O %v L %v, dense fill O %v L %v", name, i, j,
						got.O.At(i, j), got.L.At(i, j), want.O.At(i, j), want.L.At(i, j))
				}
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameBits fails unless a and b are the same float64 bit for bit; the
// failure names what was compared.
func sameBits(t *testing.T, a, b float64, format string, args ...any) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: tiered %v, materialised %v", fmt.Sprintf(format, args...), a, b)
	}
}

// randomSubset draws about frac of the p ranks, ascending.
func randomSubset(rng *stats.RNG, p int, frac float64) []int {
	var ranks []int
	for r := 0; r < p; r++ {
		if rng.Float64() < frac {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// randomSchedule is a schedule of a few stages of random signals, about
// perRank a rank per stage: not a barrier, just something to price.
func randomSchedule(rng *stats.RNG, p, stages int, perRank float64) *sched.Schedule {
	s := sched.New("random", p)
	for k := 0; k < stages; k++ {
		st := mat.NewBool(p)
		for n := int(perRank * float64(p)); n > 0; n-- {
			if i, j := rng.Intn(p), rng.Intn(p); i != j {
				st.Set(i, j, true)
			}
		}
		s.AddStage(st)
	}
	return s
}

// TestTieredProfileMatchesMaterialised checks every tier-aware profile
// operation against the same call on the dense fill: Validate's verdict,
// Distance, Diameter and Sub on random subsets, the off-diagonal extremes,
// the saved bytes and predict.Cost of random schedules under both policies.
// It checks once on the untouched oracle and once after the same writes to
// both, some to O and L of a pair, some to O alone, so that rows of every
// form meet in one call.
func TestTieredProfileMatchesMaterialised(t *testing.T) {
	rng := stats.NewRNG(48)
	for _, c := range oracleCases(t) {
		if c.f.P() > 256 && perftest.RaceEnabled {
			continue // half a minute under -race; TestTrueProfileBitIdentical still covers it
		}
		tiered, dense := c.f.TrueProfile(), denseTrueProfile(c.f)
		matchMaterialised(t, rng, c.name, tiered, dense, nil)
		written := mat.NewBool(tiered.P) // priced by one stage of its own
		for k := 0; k < 6; k++ {
			i, j := rng.Intn(tiered.P), rng.Intn(tiered.P)
			written.Set(i, j, i != j)
			o, l := 1e-6*float64(1+k), 0.25e-6*float64(1+k)
			for _, pf := range []*profile.Profile{tiered, dense} {
				pf.O.Set(i, j, o)
				if k%2 == 0 {
					pf.L.Set(i, j, l)
				}
			}
		}
		matchMaterialised(t, rng, c.name+" after writes", tiered, dense, written)
	}
}

func matchMaterialised(t *testing.T, rng *stats.RNG, name string, tiered, dense *profile.Profile, stage *mat.Bool) {
	t.Helper()
	p := tiered.P
	if a, b := errText(tiered.Validate()), errText(dense.Validate()); a != b {
		t.Fatalf("%s: Validate tiered %q, materialised %q", name, a, b)
	}
	for _, m := range [][2]*mat.Costs{{tiered.O, dense.O}, {tiered.L, dense.L}} {
		sameBits(t, m[0].MinOffDiag(), m[1].MinOffDiag(), "%s MinOffDiag", name)
		sameBits(t, m[0].MaxOffDiag(), m[1].MaxOffDiag(), "%s MaxOffDiag", name)
	}
	a, _ := json.Marshal(tiered)
	b, _ := json.Marshal(dense)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: saved bytes differ", name)
	}
	for k := 0; k < 2000; k++ {
		i, j := rng.Intn(p), rng.Intn(p)
		sameBits(t, tiered.Distance(i, j), dense.Distance(i, j), "%s Distance(%d,%d)", name, i, j)
	}
	subsets := [][]int{nil, {0}, randomSubset(rng, p, 1)}
	for k := 0; k < 12; k++ {
		subsets = append(subsets, randomSubset(rng, p, []float64{0.02, 0.1, 0.5}[k%3]))
	}
	for _, ranks := range subsets {
		sameBits(t, tiered.Diameter(ranks), dense.Diameter(ranks), "%s Diameter of %d ranks", name, len(ranks))
		st, sd := tiered.Sub(ranks), dense.Sub(ranks)
		for a := range ranks {
			for b := range ranks {
				if math.Float64bits(st.O.At(a, b)) != math.Float64bits(sd.O.At(a, b)) ||
					math.Float64bits(st.L.At(a, b)) != math.Float64bits(sd.L.At(a, b)) {
					t.Fatalf("%s: Sub of %d ranks differs at (%d,%d)", name, len(ranks), a, b)
				}
			}
		}
		if a, b := errText(st.Validate()), errText(sd.Validate()); a != b {
			t.Fatalf("%s: Sub Validate tiered %q, materialised %q", name, a, b)
		}
		all := make([]int, len(ranks))
		for a := range all {
			all[a] = a
		}
		sameBits(t, st.Diameter(all), sd.Diameter(all), "%s Sub Diameter", name)
	}
	for k := 0; k < 6; k++ {
		s := randomSchedule(rng, p, 1+k, []float64{0.5, 2, 8}[k%3])
		if stage != nil {
			s.Stages = append([]*mat.Bool{stage}, s.Stages...)
		}
		for _, pol := range []predict.CostPolicy{predict.FirstStageEq1, predict.AlwaysEq1} {
			pt, pd := &predict.Predictor{Prof: tiered, Policy: pol}, &predict.Predictor{Prof: dense, Policy: pol}
			sameBits(t, pt.Cost(s), pd.Cost(s), "%s Cost (%v, %d stages)", name, pol, 1+k)
		}
	}
}

// TestTrueProfileAllocs is the memory guard of the oracle: at P = 4096 the
// dense fill allocated 256 MB (two 4096² float64 matrices); the tier table
// is a code and two diagonal entries a rank.
func TestTrueProfileAllocs(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	f, err := New(ScaleClusterSpec(4096, 0), topo.Block{}, 4096, GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pf := f.TrueProfile()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > 1<<20 {
		t.Fatalf("TrueProfile at P=4096 allocated %d bytes, want ≤ 1 MB", got)
	}
	t.Logf("TrueProfile at P=4096 allocated %d bytes", got)
	if pf.P != 4096 {
		t.Fatalf("P = %d", pf.P)
	}
}
