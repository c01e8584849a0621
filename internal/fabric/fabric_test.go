package fabric

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

func quietParams(seed uint64) Params {
	p := GigEParams(seed)
	for c, l := range p.Classes {
		l.Sigma = 0
		p.Classes[c] = l
	}
	p.SelfSigma = 0
	return p
}

func TestNewPlacesRanks(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.P() != 16 {
		t.Fatalf("P() = %d", f.P())
	}
	if f.cores[0] != 0 || f.cores[15] != 15 {
		t.Fatalf("block cores wrong: %d %d", f.cores[0], f.cores[15])
	}
	if f.NodeOf(7) != 0 || f.NodeOf(8) != 1 {
		t.Fatalf("NodeOf wrong: %d %d", f.NodeOf(7), f.NodeOf(8))
	}
	if f.Spec().Name != topo.QuadCluster().Name {
		t.Fatalf("Spec() = %q", f.Spec().Name)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(topo.QuadCluster(), topo.Block{}, 100, GigEParams(1)); err == nil {
		t.Fatalf("oversubscription accepted")
	}
	bad := topo.Spec{Nodes: 0, SocketsPerNode: 1, CoresPerSocket: 1}
	if _, err := New(bad, topo.Block{}, 1, GigEParams(1)); err == nil {
		t.Fatalf("invalid spec accepted")
	}
	// Multi-node spec without cross-node parameters must be rejected.
	p := GigEParams(1)
	delete(p.Classes, topo.CrossNode)
	if _, err := New(topo.QuadCluster(), topo.Block{}, 2, p); err == nil {
		t.Fatalf("missing cross-node class accepted")
	}
}

func TestClassResolution(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		want topo.LinkClass
	}{
		{0, 1, topo.SharedCache},
		{0, 2, topo.SameSocket},
		{0, 4, topo.CrossSocket},
		{0, 8, topo.CrossNode},
	}
	for _, c := range cases {
		if got := f.Class(c.a, c.b); got != c.want {
			t.Errorf("Class(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCostOrderingAcrossClasses(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	oCache := f.SendOverhead(0, 1, 0)
	oSocket := f.SendOverhead(0, 2, 0)
	oCross := f.SendOverhead(0, 4, 0)
	oNode := f.SendOverhead(0, 8, 0)
	if !(oCache < oSocket && oSocket < oCross && oCross < oNode) {
		t.Fatalf("overhead ordering violated: %g %g %g %g", oCache, oSocket, oCross, oNode)
	}
	// Inter-node dominates intra-node by a wide margin (the locality gap the
	// method exploits).
	if oNode < 10*oCross {
		t.Fatalf("inter-node %g not ≫ cross-socket %g", oNode, oCross)
	}
}

func TestOnChipOffChipFactorFour(t *testing.T) {
	// The Figure 9 observation: L differs by ~4x between on-chip and
	// off-chip pairs within a node.
	f, err := New(topo.SingleNode(2, 4, 2), topo.Block{}, 8, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	on := f.BatchMarginal(0, 2)  // same socket, different cache pair
	off := f.BatchMarginal(0, 4) // other socket
	ratio := off / on
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("off-chip/on-chip L ratio = %g, want ~4 (Figure 9)", ratio)
	}
}

func TestSendOverheadSizeDependence(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	small := f.SendOverhead(0, 8, 0)
	big := f.SendOverhead(0, 8, 1<<20)
	wantDelta := GigEParams(1).Classes[topo.CrossNode].Beta * float64(1<<20)
	if math.Abs((big-small)-wantDelta) > 1e-12 {
		t.Fatalf("size slope wrong: big-small = %g, want %g", big-small, wantDelta)
	}
}

func TestTrueValuesMatchNoiseFreeSamples(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.RoundRobin{}, 22, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {0, 3}, {1, 2}, {5, 20}} {
		s, d := pair[0], pair[1]
		if got, want := f.SendOverhead(s, d, 0), f.TrueO(s, d); got != want {
			t.Errorf("SendOverhead(%d,%d) = %g, want %g", s, d, got, want)
		}
		if got, want := f.BatchMarginal(s, d), f.TrueL(s, d); got != want {
			t.Errorf("BatchMarginal(%d,%d) = %g, want %g", s, d, got, want)
		}
	}
	if got, want := f.SelfOverhead(3), quietParams(1).SelfOverhead; got != want {
		t.Errorf("SelfOverhead = %g, want %g", got, want)
	}
	if f.TrueL(4, 4) != 0 {
		t.Errorf("TrueL self not 0")
	}
	if f.TrueO(4, 4) != quietParams(1).SelfOverhead {
		t.Errorf("TrueO self != SelfOverhead")
	}
}

func TestSelfSendUsesSelfOverhead(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 4, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.SendOverhead(2, 2, 0); got != quietParams(1).SelfOverhead {
		t.Fatalf("self send = %g, want SelfOverhead", got)
	}
}

func TestNoiseIsReproducibleAndCentred(t *testing.T) {
	a, err := New(topo.QuadCluster(), topo.Block{}, 16, GigEParams(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(topo.QuadCluster(), topo.Block{}, 16, GigEParams(42))
	if err != nil {
		t.Fatal(err)
	}
	var sa, sb []float64
	for i := 0; i < 500; i++ {
		sa = append(sa, a.SendOverhead(0, 8, 0))
		sb = append(sb, b.SendOverhead(0, 8, 0))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	// Median of log-normal noise is 1, so sample median ~ Alpha.
	alpha := GigEParams(42).Classes[topo.CrossNode].Alpha
	if m := stats.Median(sa); math.Abs(m-alpha)/alpha > 0.05 {
		t.Fatalf("noisy median %g too far from alpha %g", m, alpha)
	}
	if stats.Min(sa) == stats.Max(sa) {
		t.Fatalf("no noise with nonzero sigma")
	}
}

// refNoise is the fabric's noise factor drawn in place, written out as the
// fabric drew it before the look-ahead: exp(σ·√(−2 ln u₁)·cos 2πu₂), with
// the u₁ = 0 redraw, and no draw at all for σ ≤ 0.
func refNoise(r *stats.RNG, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Exp(sigma * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// The factors computed a batch ahead are the stream drawn in place, bit for
// bit, across the two batches filled inline and the look-ahead batches after
// them, for every sigma the presets draw with: each class's sigma, a third of
// it for the transfer term, and SelfSigma (and 0, which draws nothing).
func TestNoiseLookAheadIsTheStream(t *testing.T) {
	sigmas := []float64{0}
	for _, params := range []Params{GigEParams(1), IBParams(1)} {
		for _, l := range params.Classes {
			sigmas = append(sigmas, l.Sigma, l.Sigma/3)
		}
		sigmas = append(sigmas, params.SelfSigma)
	}
	slices.Sort(sigmas) // map order is random; the draw order must not be
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, GigEParams(7))
	if err != nil {
		t.Fatal(err)
	}
	ref := stats.NewRNG(7)
	pick := rand.New(rand.NewSource(1))
	for i := 0; i < 5*noiseBatch; i++ {
		sigma := sigmas[pick.Intn(len(sigmas))]
		if got, want := f.noise(sigma), refNoise(ref, sigma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d (sigma %g): look-ahead %x, in place %x", i, sigma, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if f.ahead == nil {
		t.Fatal("five batches drawn without the look-ahead")
	}
}

// Only a fabric that draws past its first batch starts the look-ahead
// goroutine; one that never draws (a noise-free fabric, or an oracle profile)
// does not even allocate a batch.
func TestNoiseLookAheadStartsPastTheFirstBatch(t *testing.T) {
	quiet, err := New(topo.QuadCluster(), topo.Block{}, 16, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	quiet.TrueProfile()
	for i := 0; i < 2*noiseBatch; i++ {
		quiet.SendOverhead(0, 8, 64)
		quiet.BatchMarginal(0, 8)
		quiet.SelfOverhead(3)
	}
	if quiet.batch != nil || quiet.ahead != nil {
		t.Fatal("a noise-free fabric computed noise")
	}

	f, err := New(topo.QuadCluster(), topo.Block{}, 16, GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < noiseBatch; i++ {
		f.BatchMarginal(0, 8)
	}
	if f.ahead != nil {
		t.Fatalf("%d draws started the look-ahead goroutine", noiseBatch)
	}
	f.BatchMarginal(0, 8)
	if f.ahead == nil {
		t.Fatalf("%d draws did not start the look-ahead goroutine", noiseBatch+1)
	}
}

func TestNICOccupancy(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 16, quietParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.NICOccupancy(0, 1, 100) != 0 {
		t.Fatalf("intra-node traffic occupies NIC")
	}
	occ := f.NICOccupancy(0, 8, 0)
	if occ != GigEParams(1).NICOccupancy {
		t.Fatalf("cross-node NIC occupancy = %g", occ)
	}
	if f.NICOccupancy(0, 8, 1000) <= occ {
		t.Fatalf("NIC occupancy not size-dependent")
	}
	p := quietParams(1)
	p.NICOccupancy = 0
	f2, err := New(topo.QuadCluster(), topo.Block{}, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NICOccupancy(0, 8, 0) != 0 {
		t.Fatalf("disabled congestion still reports occupancy")
	}
}

func TestRankRangePanics(t *testing.T) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 4, GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { f.NodeOf(4) },
		func() { f.Class(0, 4) },
		func() { f.SelfOverhead(-1) },
		func() { f.BatchMarginal(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHexClusterFabric(t *testing.T) {
	f, err := New(topo.HexCluster(), topo.RoundRobin{}, 120, GigEParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if f.P() != 120 {
		t.Fatalf("P() = %d", f.P())
	}
	// Round-robin over all 10 nodes: ranks 0 and 10 share node 0.
	if f.NodeOf(0) != f.NodeOf(10) || f.NodeOf(0) == f.NodeOf(1) {
		t.Fatalf("round-robin node mapping wrong: %d %d %d", f.NodeOf(0), f.NodeOf(10), f.NodeOf(1))
	}
}

func BenchmarkSendOverhead(b *testing.B) {
	f, err := New(topo.QuadCluster(), topo.Block{}, 64, GigEParams(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.SendOverhead(0, 63, 0)
	}
}

// TrueProfile reads its entries off a tier table; the TrueO / TrueL accessors
// are the per-entry reference it must agree with bit for bit, round-robin and
// block placements, symmetric and skewed links.
func TestTrueProfileMatchesOracle(t *testing.T) {
	check := func(f *Fabric, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		pf := f.TrueProfile()
		if err := pf.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.P(); i++ {
			for j := 0; j < f.P(); j++ {
				if pf.O.At(i, j) != f.TrueO(i, j) || pf.L.At(i, j) != f.TrueL(i, j) {
					t.Fatalf("P=%d skew=%g: oracle profile mismatch at (%d,%d)", f.P(), f.params.DirectionSkew, i, j)
				}
			}
		}
	}
	check(New(topo.QuadCluster(), topo.RoundRobin{}, 12, GigEParams(1)))
	for _, p := range []int{8, 64, 1024} {
		for _, skew := range []float64{0, 0.5} {
			params := GigEParams(1)
			params.DirectionSkew = skew
			check(New(ScaleClusterSpec(p, (p+31)/32), topo.Block{}, p, params))
			if p <= 64 {
				check(New(topo.QuadCluster(), topo.RoundRobin{}, p, params))
			}
		}
	}
}

// A class table lacking a link class the placed ranks can produce is a
// constructor error (it used to surface mid-simulation as "rank N panicked");
// classes the placement cannot produce stay optional.
func TestMissingClassRejected(t *testing.T) {
	twoSocket := topo.SingleNode(2, 4, 2)
	without := func(drop ...topo.LinkClass) Params {
		p := quietParams(1)
		for _, c := range drop {
			delete(p.Classes, c)
		}
		return p
	}
	_, err := New(twoSocket, topo.Block{}, 8, without(topo.CrossSocket, topo.CrossNode))
	if err == nil || !strings.Contains(err.Error(), "cross-socket") {
		t.Fatalf("two-socket job without CrossSocket: err = %v", err)
	}
	// Any pair may be the only one producing the class.
	cores := topo.Permutation{Cores: []int{0, 2, 4}}
	if _, err := New(twoSocket, cores, 3, without(topo.SameSocket)); err == nil {
		t.Fatalf("missing SameSocket (ranks 0,1) accepted")
	}
	if _, err := New(twoSocket, cores, 3, without(topo.SharedCache, topo.CrossNode)); err != nil {
		t.Fatalf("unproducible classes demanded: %v", err)
	}
	// Four ranks on one socket never cross sockets.
	f, err := New(twoSocket, topo.Block{}, 4, without(topo.CrossSocket))
	if err != nil {
		t.Fatalf("unproducible CrossSocket demanded: %v", err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			f.SendOverhead(i, j, 8) // every producible link has parameters
		}
	}
	// Against brute force: for random placements with one class dropped, New
	// errs exactly when some pair of ranks is connected by that class.
	rng := rand.New(rand.NewSource(7))
	quad := topo.QuadCluster()
	for trial := 0; trial < 300; trial++ {
		p := 2 + rng.Intn(10)
		cores := rng.Perm(quad.TotalCores())[:p]
		drop := topo.SharedCache + topo.LinkClass(rng.Intn(3)) // CrossNode is always mandatory here
		produced := false
		for i := 0; i < p; i++ {
			for j := 0; j < i; j++ {
				produced = produced || quad.SeatAt(cores[i]).ClassTo(quad.SeatAt(cores[j])) == drop
			}
		}
		_, err := New(quad, topo.Permutation{Cores: cores}, p, without(drop))
		if (err != nil) != produced {
			t.Fatalf("cores %v without %v: err = %v, class produced = %v", cores, drop, err, produced)
		}
	}
}
