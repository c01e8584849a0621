package probe

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/perftest"
	"topobarrier/internal/profile"
	"topobarrier/internal/sss"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

// quietFabric returns a noise-free two-node machine with known parameters.
func quietFabric(t testing.TB, p int) *fabric.Fabric {
	t.Helper()
	spec := topo.Spec{Name: "probe-test", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4}
	params := fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 10e-6, Beta: 1e-9, Lambda: 2e-6},
			topo.CrossNode:  {Alpha: 50e-6, Beta: 8e-9, Lambda: 8e-6},
		},
		SelfOverhead: 1e-6,
	}
	f, err := fabric.New(spec, topo.Block{}, p, params)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFabricDirectionSkew: on a fabric whose reverse-direction links (higher
// core to lower core) cost 50% more, the symmetric protocol reads each pair's
// O as the mean of its two directions — a round trip crosses both.
func TestFabricDirectionSkew(t *testing.T) {
	spec := topo.Spec{Name: "skewed", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4}
	f, err := fabric.New(spec, topo.Block{}, 8, fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 10e-6, Beta: 1e-9, Lambda: 2e-6},
			topo.CrossNode:  {Alpha: 50e-6, Beta: 8e-9, Lambda: 8e-6},
		},
		SelfOverhead:  1e-6,
		DirectionSkew: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := f.TrueO(0, 4)
	rev := f.TrueO(4, 0)
	if math.Abs(rev/fwd-1.5) > 1e-12 {
		t.Fatalf("skew not applied: fwd %g rev %g", fwd, rev)
	}
	if f.TrueL(4, 0)/f.TrueL(0, 4) != 1.5 {
		t.Fatalf("skew not applied to L")
	}
	// Noise-free samples match ground truth in both directions.
	if f.SendOverhead(4, 0, 0) != rev {
		t.Fatalf("sample does not reflect skew")
	}
	pf, err := Measure(mpi.NewWorld(f), Default())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pf.O.At(0, 4), (fwd+rev)/2; math.Abs(got-want)/want > 0.05 || pf.O.At(4, 0) != got {
		t.Fatalf("symmetric O(0,4) = %g / O(4,0) = %g, want the directions' mean %g", got, pf.O.At(4, 0), want)
	}
}

func TestMeasureRecoversQuietParameters(t *testing.T) {
	f := quietFabric(t, 6)
	pf, err := Measure(mpi.NewWorld(f), Default())
	if err != nil {
		t.Fatal(err)
	}
	if pf.P != 6 {
		t.Fatalf("profile P = %d", pf.P)
	}
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / want }
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				if relErr(pf.O.At(i, i), 1e-6) > 0.02 {
					t.Errorf("Oii[%d] = %g, want ~1µs", i, pf.O.At(i, i))
				}
				continue
			}
			if e := relErr(pf.O.At(i, j), f.TrueO(i, j)); e > 0.05 {
				t.Errorf("O[%d][%d] = %g, want %g (err %.1f%%)", i, j, pf.O.At(i, j), f.TrueO(i, j), 100*e)
			}
			if e := relErr(pf.L.At(i, j), f.TrueL(i, j)); e > 0.05 {
				t.Errorf("L[%d][%d] = %g, want %g (err %.1f%%)", i, j, pf.L.At(i, j), f.TrueL(i, j), 100*e)
			}
		}
	}
}

func TestMeasureSymmetricByConstruction(t *testing.T) {
	pf, err := Measure(mpi.NewWorld(quietFabric(t, 5)), Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pf.P; i++ {
		for j := 0; j < pf.P; j++ {
			if pf.O.At(i, j) != pf.O.At(j, i) || pf.L.At(i, j) != pf.L.At(j, i) {
				t.Fatalf("asymmetric profile at (%d,%d)", i, j)
			}
		}
	}
}

func TestMeasureWithNoiseStaysInBand(t *testing.T) {
	spec := topo.Spec{Name: "noisy", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 3}
	params := fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 10e-6, Beta: 1e-9, Lambda: 2e-6, Sigma: 0.08},
			topo.CrossNode:  {Alpha: 50e-6, Beta: 8e-9, Lambda: 8e-6, Sigma: 0.12},
		},
		SelfOverhead: 1e-6,
		SelfSigma:    0.05,
		Seed:         99,
	}
	f, err := fabric.New(spec, topo.Block{}, 6, params)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Measure(mpi.NewWorld(f), Default())
	if err != nil {
		t.Fatal(err)
	}
	// Noise allows individual error, but the profile must still cleanly
	// separate the two link classes — the property the tuner depends on.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			o := pf.O.At(i, j)
			if f.Class(i, j) == topo.CrossNode {
				if o < 30e-6 || o > 80e-6 {
					t.Errorf("cross-node O[%d][%d] = %g out of band", i, j, o)
				}
			} else if o > 20e-6 {
				t.Errorf("local O[%d][%d] = %g out of band", i, j, o)
			}
		}
	}
}

func TestReplicateMatchesFullOnUniformFabric(t *testing.T) {
	full, err := Measure(mpi.NewWorld(quietFabric(t, 6)), Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Replicate = true
	rep, err := Measure(mpi.NewWorld(quietFabric(t, 6)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			d := math.Abs(full.O.At(i, j) - rep.O.At(i, j))
			if d > 0.05*full.O.At(i, j) {
				t.Errorf("replicated O[%d][%d] = %g, full = %g", i, j, rep.O.At(i, j), full.O.At(i, j))
			}
		}
	}
}

func TestReplicateIsMuchCheaper(t *testing.T) {
	// On the quad cluster, a replicated profile measures a handful of pairs;
	// sanity-check it completes on the full 64-rank machine quickly.
	f, err := fabric.New(topo.QuadCluster(), topo.Block{}, 64, fabric.GigEParams(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Replicate = true
	pf, err := Measure(mpi.NewWorld(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pf.P != 64 {
		t.Fatalf("P = %d", pf.P)
	}
	// All cross-node entries share the single measured representative.
	if pf.O.At(0, 8) != pf.O.At(5, 63) {
		t.Fatalf("replication not uniform: %g vs %g", pf.O.At(0, 8), pf.O.At(5, 63))
	}
	if pf.O.At(0, 8) < 30e-6 {
		t.Fatalf("cross-node estimate %g implausible", pf.O.At(0, 8))
	}
}

func TestConfigValidation(t *testing.T) {
	w := mpi.NewWorld(quietFabric(t, 4))
	bad := []Config{
		{Sizes: []int{1}, Batches: []int{1, 2}, Reps: 1},
		{Sizes: []int{1, 2}, Batches: []int{1}, Reps: 1},
		{Sizes: []int{1, 2}, Batches: []int{1, 2}, Reps: 0},
		{Sizes: []int{1, 2}, Batches: []int{1, 2}, Reps: 1, Warmup: -1},
	}
	for i, cfg := range bad {
		if _, err := Measure(w, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	single, err := fabric.New(topo.SingleNode(1, 1, 0), topo.Block{}, 1, fabric.Params{
		Classes:      map[topo.LinkClass]fabric.Link{},
		SelfOverhead: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(mpi.NewWorld(single), Default()); err == nil {
		t.Errorf("1-rank profiling accepted")
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := Paper()
	if len(cfg.Sizes) != 21 || cfg.Sizes[0] != 1 || cfg.Sizes[20] != 1<<20 {
		t.Fatalf("paper sizes wrong: %v", cfg.Sizes)
	}
	if len(cfg.Batches) != 32 || cfg.Batches[31] != 32 {
		t.Fatalf("paper batches wrong")
	}
	if cfg.Reps != 25 {
		t.Fatalf("paper reps = %d", cfg.Reps)
	}
}

// quadWorld is the paper's quad cluster, round-robin placed: at P = 64 the
// ledger's paper_sim_p64 platform.
func quadWorld(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

// Two probes of one seed agree bit for bit — O, L and which entries are
// estimates — on the dense path (P = 8) and through every phase of the
// hierarchy-driven one (P = 64): the ledger's "rebuilding a draw must
// reproduce its hash" rests on it.
func TestMeasureDeterministic(t *testing.T) {
	for _, p := range []int{8, 64} {
		a, err := Measure(quadWorld(t, p, 7), Default())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Measure(quadWorld(t, p, 7), Default())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("P=%d: profiling not reproducible", p)
		}
		if sparse := a.Provenance != nil; sparse != (p > denseLimit) {
			t.Fatalf("P=%d: provenance present = %v", p, sparse)
		}
	}
}

// cold_start_p8's simulator probe (two quad-core nodes, block-placed) is at
// most denseLimit ranks, so it is the all-pairs protocol it always was: the
// hash was taken at the commit before the probe learnt to cluster.
func TestMeasureP8ProfileUnchanged(t *testing.T) {
	spec := topo.Spec{Name: "2x quad-core", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4, CacheGroup: 2}
	f, err := fabric.New(spec, topo.Block{}, 8, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Measure(mpi.NewWorld(f), Default())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < pf.P; i++ {
		for j := 0; j < pf.P; j++ {
			fmt.Fprintf(h, "%x %x\n", pf.O.At(i, j), pf.L.At(i, j))
		}
	}
	const want = "ed4a14335e4f8dd1c642cb4c2b7e6e427c1d44f7b8b84b1bd0eefdc016962c65"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || pf.Provenance != nil {
		t.Fatalf("P=8 profile hash %s (provenance %v), want %s and none", got, pf.Provenance, want)
	}
}

// The pair counts of the hierarchy-driven probe are exact and pinned: the
// paper's quad cluster at P = 64 (acceptance: at most 520 of 2 016), the
// 16-node scale cluster at P = 256 (at most 4 200 of 32 640) and the 32-node
// one at P = 1024 (at most 6.5 % of 523 776). At every size the sparse
// profile clusters at depth 1 the way the oracle profile does.
func TestMeasurePairCounts(t *testing.T) {
	scale := func(p, nodes int) *mpi.World {
		f, err := fabric.New(fabric.ScaleClusterSpec(p, nodes), topo.Block{}, p, fabric.GigEParams(1))
		if err != nil {
			t.Fatal(err)
		}
		return mpi.NewWorld(f)
	}
	for _, tc := range []struct {
		w    func() *mpi.World
		p    int
		want int
	}{
		{func() *mpi.World { return quadWorld(t, 64, 1) }, 64, 511},
		{func() *mpi.World { return scale(256, 16) }, 256, 4095},
		{func() *mpi.World { return scale(1024, 32) }, 1024, 32767},
	} {
		p := tc.p
		if p > 64 && (testing.Short() || perftest.RaceEnabled) {
			continue // ≈ 1 s and ≈ 10 s plain
		}
		w := tc.w()
		pf, err := Measure(w, Default())
		if err != nil {
			t.Fatal(err)
		}
		pv := pf.Provenance
		t.Logf("P=%d: measured %d of %d pairs, %d spot checks, %d blocks re-measured", p, pf.MeasuredPairs(), p*(p-1)/2, pv.SpotChecked, pv.Remeasured)
		if got := pf.MeasuredPairs(); got != tc.want {
			t.Errorf("P=%d: measured %d pairs, want %d", p, got, tc.want)
		}
		one := sss.Options{MaxDepth: 1}
		if got, want := sss.Tree(pf, one).String(), sss.Tree(w.Fabric().TrueProfile(), one).String(); got != want {
			t.Errorf("P=%d: depth-1 clusters %s, oracle's %s", p, got, want)
		}
	}
}

func BenchmarkMeasureReplicate64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := fabric.New(topo.QuadCluster(), topo.Block{}, 64, fabric.GigEParams(3))
		if err != nil {
			b.Fatal(err)
		}
		cfg := Default()
		cfg.Replicate = true
		if _, err := Measure(mpi.NewWorld(f), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: for random quiet fabrics, the estimator recovers the ground
// truth within 10% for every link class present.
func TestQuickMeasureRecoversRandomParams(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		alphaLocal := (1 + 9*rng.Float64()) * 1e-6
		alphaRemote := (20 + 80*rng.Float64()) * 1e-6
		spec := topo.Spec{Name: "rand", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2}
		params := fabric.Params{
			Classes: map[topo.LinkClass]fabric.Link{
				topo.SameSocket: {Alpha: alphaLocal, Beta: 1e-9, Lambda: alphaLocal / 5},
				topo.CrossNode:  {Alpha: alphaRemote, Beta: 8e-9, Lambda: alphaRemote / 7},
			},
			SelfOverhead: alphaLocal / 2,
		}
		fb, err := fabric.New(spec, topo.Block{}, 4, params)
		if err != nil {
			return false
		}
		pf, err := Measure(mpi.NewWorld(fb), Default())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i == j {
					continue
				}
				if e := relativeErr(pf.O.At(i, j), fb.TrueO(i, j)); e > 0.10 {
					t.Logf("seed %d: O[%d][%d] err %.1f%%", seed, i, j, 100*e)
					return false
				}
				if e := relativeErr(pf.L.At(i, j), fb.TrueL(i, j)); e > 0.10 {
					t.Logf("seed %d: L[%d][%d] err %.1f%%", seed, i, j, 100*e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func relativeErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestPaperProtocolRecoversParameters(t *testing.T) {
	// The paper's exact §IV.A protocol (sizes 1..2^20, batches 1..32, 25
	// reps) on a small noisy job: estimates must stay within 15% despite the
	// megabyte-scale transfer points dominating the fit range.
	spec := topo.Spec{Name: "paper-proto", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2}
	params := fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 10e-6, Beta: 1e-9, Lambda: 2e-6, Sigma: 0.05},
			topo.CrossNode:  {Alpha: 50e-6, Beta: 8e-9, Lambda: 8e-6, Sigma: 0.08},
		},
		SelfOverhead: 1e-6,
		SelfSigma:    0.05,
		Seed:         42,
	}
	f, err := fabric.New(spec, topo.Block{}, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Measure(mpi.NewWorld(f), Paper())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if e := relativeErr(pf.O.At(i, j), f.TrueO(i, j)); e > 0.15 {
				t.Errorf("paper-protocol O[%d][%d] err %.1f%%", i, j, 100*e)
			}
			if e := relativeErr(pf.L.At(i, j), f.TrueL(i, j)); e > 0.15 {
				t.Errorf("paper-protocol L[%d][%d] err %.1f%%", i, j, 100*e)
			}
		}
	}
}

// The sweeps post through the rank's Batch and reuse their sample buffers, so
// a probe allocates per pair (fit inputs, error slots, profile entries), not
// per message: P=16 is 120 pairs exchanging 69 960 messages and measures
// 1 395 allocations, 11.6 per pair, where one Request per L-sweep message
// alone would be 985 per pair.
func TestMeasureAllocsScaleWithPairs(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	const p, perPair = 16, 32
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(f)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Measure(w, Default()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("probe.Measure at P=%d: %.0f allocations, %.1f per pair", p, allocs, allocs/(p*(p-1)/2))
	if allocs > perPair*p*(p-1)/2 {
		t.Fatalf("probe.Measure at P=%d allocated %.0f times, want <= %d per pair", p, allocs, perPair)
	}
}

// The P=64 twin: the hierarchy-driven probe adds, to the ≈ 12 allocations of
// a measured pair, those of its phases — 19 here, each a World.Run bringing
// up 64 coroutines at ≈ 12 allocations a rank — and must still allocate per
// measured pair, not per message or per pair of the rank set.
func TestMeasureAllocsScaleWithMeasuredPairs(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	const perPair = 48
	w := quadWorld(t, 64, 1)
	var pf *profile.Profile
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if pf, err = Measure(w, Default()); err != nil {
			t.Fatal(err)
		}
	})
	pairs := float64(pf.MeasuredPairs())
	t.Logf("probe.Measure at P=64: %.0f allocations, %.1f per measured pair (%.0f pairs)", allocs, allocs/pairs, pairs)
	if allocs > perPair*pairs {
		t.Fatalf("probe.Measure at P=64 allocated %.0f times, want <= %d per measured pair", allocs, perPair)
	}
}

// BenchmarkProbeMeasureP64 is the cold-start cost the ledger's paper_sim_p64
// workload is dominated by: the hierarchy-driven protocol on the §VI quad
// cluster. pairs/op is the number of pairs it actually measured.
func BenchmarkProbeMeasureP64(b *testing.B) {
	b.ReportAllocs()
	pairs := 0
	for i := 0; i < b.N; i++ {
		pf, err := Measure(quadWorld(b, 64, 1), Default())
		if err != nil {
			b.Fatal(err)
		}
		pairs += pf.MeasuredPairs()
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}
