package topo

import (
	"testing"
	"testing/quick"
)

func TestSpecShapes(t *testing.T) {
	q := QuadCluster()
	if q.CoresPerNode() != 8 || q.TotalCores() != 64 {
		t.Fatalf("quad cluster shape wrong: %d/%d", q.CoresPerNode(), q.TotalCores())
	}
	h := HexCluster()
	if h.CoresPerNode() != 12 || h.TotalCores() != 120 {
		t.Fatalf("hex cluster shape wrong: %d/%d", h.CoresPerNode(), h.TotalCores())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, SocketsPerNode: 1, CoresPerSocket: 1},
		{Nodes: 1, SocketsPerNode: -1, CoresPerSocket: 1},
		{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 0},
		{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2, CacheGroup: 3},
		{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2, CacheGroup: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
}

func TestCoreAtGlobalIndexRoundTrip(t *testing.T) {
	s := QuadCluster()
	for g := 0; g < s.TotalCores(); g++ {
		c := s.CoreAt(g)
		if back := (c.Node*s.SocketsPerNode+c.Socket)*s.CoresPerSocket + c.Index; back != g {
			t.Fatalf("round trip %d -> %+v -> %d", g, c, back)
		}
	}
	c9 := s.CoreAt(9) // node 1, socket 0, index 1
	if c9.Node != 1 || c9.Socket != 0 || c9.Index != 1 {
		t.Fatalf("CoreAt(9) = %+v", c9)
	}
}

func TestCoreAtOutOfRangePanics(t *testing.T) {
	s := SingleNode(1, 2, 0)
	for _, g := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoreAt(%d) did not panic", g)
				}
			}()
			s.CoreAt(g)
		}()
	}
}

func TestClassifyQuad(t *testing.T) {
	s := QuadCluster() // cache groups of 2 within each 4-core socket
	cases := []struct {
		a, b int
		want LinkClass
	}{
		{0, 0, Self},
		{0, 1, SharedCache}, // same socket, same cache pair
		{0, 2, SameSocket},  // same socket, different pair
		{0, 3, SameSocket},
		{2, 3, SharedCache},
		{0, 4, CrossSocket}, // socket 1 of node 0
		{3, 7, CrossSocket},
		{0, 8, CrossNode}, // node 1
		{7, 8, CrossNode},
		{63, 0, CrossNode},
	}
	for _, c := range cases {
		if got := s.SeatAt(c.a).ClassTo(s.SeatAt(c.b)); got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassifyHexNoCacheGroups(t *testing.T) {
	s := HexCluster()
	if got := s.SeatAt(0).ClassTo(s.SeatAt(1)); got != SameSocket {
		t.Fatalf("hex Classify(0,1) = %v, want SameSocket (CacheGroup disabled)", got)
	}
	if got := s.SeatAt(0).ClassTo(s.SeatAt(6)); got != CrossSocket {
		t.Fatalf("hex Classify(0,6) = %v, want CrossSocket", got)
	}
	if got := s.SeatAt(11).ClassTo(s.SeatAt(12)); got != CrossNode {
		t.Fatalf("hex Classify(11,12) = %v, want CrossNode", got)
	}
}

func TestClassifySymmetric(t *testing.T) {
	s := QuadCluster()
	f := func(a, b uint8) bool {
		x, y := int(a)%s.TotalCores(), int(b)%s.TotalCores()
		return s.SeatAt(x).ClassTo(s.SeatAt(y)) == s.SeatAt(y).ClassTo(s.SeatAt(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkClassString(t *testing.T) {
	names := map[LinkClass]string{
		Self: "self", SharedCache: "shared-cache", SameSocket: "same-socket",
		CrossSocket: "cross-socket", CrossNode: "cross-node",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if LinkClass(99).String() != "LinkClass(99)" {
		t.Errorf("unknown class string = %q", LinkClass(99).String())
	}
}

func TestBlockPlacement(t *testing.T) {
	s := QuadCluster()
	cores, err := Block{}.Assign(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range cores {
		if c != r {
			t.Fatalf("block rank %d on core %d", r, c)
		}
	}
	if _, err := (Block{}).Assign(s, 65); err == nil {
		t.Fatalf("oversubscription accepted")
	}
	if _, err := (Block{}).Assign(s, 0); err == nil {
		t.Fatalf("zero ranks accepted")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	s := QuadCluster()
	// 22 ranks need 3 nodes (8 cores each); rank r sits on node r mod 3.
	cores, err := RoundRobin{}.Assign(s, 22)
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range cores {
		if node := s.CoreAt(c).Node; node != r%3 {
			t.Fatalf("rank %d on node %d, want %d", r, node, r%3)
		}
	}
	// Full machine still works and stays a bijection.
	cores, err = RoundRobin{}.Assign(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cores {
		if seen[c] {
			t.Fatalf("core %d reused", c)
		}
		seen[c] = true
	}
}

func TestRoundRobinUnevenSpill(t *testing.T) {
	// 2-core nodes, 3 ranks on 2 nodes: rank 2 goes back to node 0; a 4th
	// rank must spill correctly to the remaining slot of node 1.
	s := Spec{Name: "tiny", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2}
	cores, err := RoundRobin{}.Assign(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cores {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin with spill reused cores: %v", cores)
	}
}

func TestRoundRobinUsedNodes(t *testing.T) {
	s := QuadCluster()
	// 9 ranks need 2 nodes: odd/even alternation across the node boundary.
	cores, err := RoundRobin{}.Assign(s, 9)
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range cores {
		if node := s.CoreAt(c).Node; node != r%2 {
			t.Fatalf("rank %d on node %d, want %d", r, node, r%2)
		}
	}
}

func TestPermutationPlacement(t *testing.T) {
	s := SingleNode(2, 2, 0)
	p := Permutation{Label: "reversed", Cores: []int{3, 2, 1, 0}}
	cores, err := p.Assign(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cores[0] != 3 || cores[3] != 0 {
		t.Fatalf("permutation not respected: %v", cores)
	}
	if p.Name() != "reversed" {
		t.Fatalf("Name() = %q", p.Name())
	}
	if (Permutation{}).Name() != "permutation" {
		t.Fatalf("default Name() wrong")
	}
	if _, err := p.Assign(s, 3); err == nil {
		t.Fatalf("length mismatch accepted")
	}
	bad := Permutation{Cores: []int{0, 0, 1, 2}}
	if _, err := bad.Assign(s, 4); err == nil {
		t.Fatalf("duplicate core accepted")
	}
	oob := Permutation{Cores: []int{0, 1, 2, 99}}
	if _, err := oob.Assign(s, 4); err == nil {
		t.Fatalf("out-of-range core accepted")
	}
}

// Property: every placement yields a bijection onto a subset of cores for all
// feasible P on both paper clusters.
func TestQuickPlacementsAreInjective(t *testing.T) {
	specs := []Spec{QuadCluster(), HexCluster()}
	placements := []Placement{Block{}, RoundRobin{}}
	f := func(pRaw uint8, si, pi uint8) bool {
		spec := specs[int(si)%len(specs)]
		pl := placements[int(pi)%len(placements)]
		p := int(pRaw)%spec.TotalCores() + 1
		cores, err := pl.Assign(spec, p)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, c := range cores {
			if c < 0 || c >= spec.TotalCores() || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementNames(t *testing.T) {
	if (Block{}).Name() != "block" || (RoundRobin{}).Name() != "round-robin" {
		t.Fatalf("placement names wrong")
	}
}

func TestRoundRobinRejectsInvalidSpec(t *testing.T) {
	bad := Spec{Nodes: 0, SocketsPerNode: 1, CoresPerSocket: 1}
	if _, err := (RoundRobin{}).Assign(bad, 1); err == nil {
		t.Fatalf("invalid spec accepted")
	}
	if _, err := (RoundRobin{}).Assign(QuadCluster(), 0); err == nil {
		t.Fatalf("zero ranks accepted")
	}
	if _, err := (RoundRobin{}).Assign(QuadCluster(), 65); err == nil {
		t.Fatalf("oversubscription accepted")
	}
}
