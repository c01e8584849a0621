package netmpi

import (
	"reflect"
	"testing"

	"topobarrier/internal/profile"
	"topobarrier/internal/topo"
)

func TestParseColocation(t *testing.T) {
	cases := []struct {
		spec string
		p    int
		want []int // nil = expect error
	}{
		{"nodes=2", 8, []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{"nodes=4", 8, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{"nodes=3", 8, []int{0, 0, 0, 1, 1, 1, 2, 2}},
		{"nodes=1", 4, []int{0, 0, 0, 0}},
		{"0-3,4-7", 8, []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{"0 2,1 3", 4, []int{0, 1, 0, 1}},
		{"1-2", 4, []int{1, 0, 0, 2}}, // unlisted ranks get private nodes
		{"nodes=0", 4, nil},
		{"nodes=5", 4, nil},
		{"nodes=x", 4, nil},
		{"0-1,1-2", 4, nil}, // rank 1 in two groups
		{"0-9", 4, nil},     // out of range
		{"a-b", 4, nil},
		{"nodes=2", 0, nil},
	}
	for _, c := range cases {
		got, err := ParseColocation(c.spec, c.p)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseColocation(%q, %d) = %v, want error", c.spec, c.p, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseColocation(%q, %d): %v", c.spec, c.p, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseColocation(%q, %d) = %v, want %v", c.spec, c.p, got, c.want)
		}
	}
}

func TestTransportSignature(t *testing.T) {
	cases := []struct {
		nodes []int
		want  string
	}{
		{nil, "tcp"},
		{[]int{0, 1, 2, 3}, "tcp"}, // all-distinct nodes: no shm link anywhere
		{[]int{0, 0, 1, 1}, "shm:0,0,1,1"},
		{[]int{0, 0, 0, 0}, "shm:0,0,0,0"},
	}
	for _, c := range cases {
		if got := TransportSignature(c.nodes); got != c.want {
			t.Errorf("TransportSignature(%v) = %q, want %q", c.nodes, got, c.want)
		}
	}
}

// TestNodesFromPlacement checks the placement → co-location plumbing: each
// rank's node id must be the node of the core the placement assigned it, and
// the topology's own link classification must agree with the derived
// transports.
func TestNodesFromPlacement(t *testing.T) {
	spec := topo.QuadCluster()
	for _, pl := range []topo.Placement{topo.Block{}, topo.RoundRobin{}} {
		const p = 8
		nodes, err := NodesFromPlacement(spec, pl, p)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(nodes) != p {
			t.Fatalf("%s: vector covers %d ranks, want %d", pl.Name(), len(nodes), p)
		}
		cores, err := pl.Assign(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			if nodes[i] != spec.CoreAt(cores[i]).Node {
				t.Errorf("%s: rank %d node = %d, core says %d", pl.Name(), i, nodes[i], spec.CoreAt(cores[i]).Node)
			}
			for j := 0; j < p; j++ {
				if i == j {
					continue
				}
				class := spec.SeatAt(cores[i]).ClassTo(spec.SeatAt(cores[j]))
				wantShm := class != topo.CrossNode
				if gotShm := nodes[i] == nodes[j]; gotShm != wantShm {
					t.Errorf("%s: link %d-%d is %s but co-location says shm=%v", pl.Name(), i, j, class, gotShm)
				}
			}
		}
	}
	if _, err := NodesFromPlacement(spec, topo.Block{}, 10_000); err == nil {
		t.Error("oversubscribed placement accepted")
	}
}

// TestTransportOfOnMesh forms a live hybrid mesh and checks every link's
// class, the mesh signature, and the fingerprint contract: pure-TCP meshes
// key as they did before hybrid transports existed, plus the probe
// protocol's key; hybrid meshes get their own keyed on the co-location
// shape.
func TestTransportOfOnMesh(t *testing.T) {
	nodes := []int{0, 0, 1, 1}
	peers, err := HybridMesh(4, nodes, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	want := func(i, j int) TransportClass {
		if nodes[i] == nodes[j] {
			return TransportShm
		}
		return TransportTCP
	}
	for i := 0; i < 4; i++ {
		if sig := peers[i].TransportSignature(); sig != "shm:0,0,1,1" {
			t.Errorf("rank %d signature = %q", i, sig)
		}
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if got := peers[i].TransportOf(j); got != want(i, j) {
				t.Errorf("rank %d link to %d = %s, want %s", i, j, got, want(i, j))
			}
		}
	}

	opts := ProbeOptions{MaxIters: 4}
	historical := profile.FingerprintOf("netmpi-loopback", "4", "iters=4,stablek=0", liveConfig.Key())
	if MeshFingerprint(peers, opts) == historical {
		t.Error("hybrid mesh fingerprint collides with the pure-TCP key")
	}

	tcpPeers, err := LoopbackMesh(4, meshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(tcpPeers)
	if MeshFingerprint(tcpPeers, opts) != historical {
		t.Error("pure-TCP mesh fingerprint drifted from the historical key")
	}
}

// TestDialRejectsBrokenColocation: the co-location vector is part of the
// mesh contract; malformed configurations must fail at Dial, not at first
// send.
func TestDialRejectsBrokenColocation(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs := []string{ln.Addr().String(), "127.0.0.1:1"}
	if _, err := Dial(0, addrs, ln, meshTimeout, WithColocation(NewShmHub(), []int{0})); err == nil {
		t.Error("short co-location vector accepted")
	}
	if _, err := Dial(0, addrs, ln, meshTimeout, WithColocation(nil, []int{0, 0})); err == nil {
		t.Error("colocation without a hub accepted")
	}
	if _, err := HybridMesh(4, []int{0, 0}, meshTimeout); err == nil {
		t.Error("HybridMesh with a short vector accepted")
	}
}
