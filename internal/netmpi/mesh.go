package netmpi

import (
	"fmt"
	"net"
	"sync"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

// VetPlan is the pre-execution gate for real-network runs: analyze.Vet, with
// a refusal worded for the transport. The report is returned even on failure
// so callers can render it.
func VetPlan(s *sched.Schedule, opts analyze.Options) (*run.Plan, *analyze.Report, error) {
	pl, rep, err := analyze.Vet(s, opts)
	if err != nil {
		return nil, rep, fmt.Errorf("netmpi: refusing to execute: %w", err)
	}
	return pl, rep, nil
}

// LoopbackMesh forms a complete in-process p-rank mesh over 127.0.0.1
// listeners: one Peer per rank, each dialled concurrently with the given
// options (so a shared telemetry registry or tracer observes every rank).
// On success the caller owns the peers and must Close each; on failure
// everything opened so far is torn down.
func LoopbackMesh(p int, timeout time.Duration, opts ...Option) ([]*Peer, error) {
	listeners, err := LoopbackListeners(p)
	if err != nil {
		return nil, err
	}
	return MeshOver(listeners, timeout, opts...)
}

// LoopbackListeners opens one 127.0.0.1 mesh listener per rank — the first
// half of LoopbackMesh, for callers that wrap some of them (fault injection)
// before handing them to MeshOver.
func LoopbackListeners(p int) ([]net.Listener, error) {
	if p < 2 {
		return nil, fmt.Errorf("netmpi: mesh needs at least 2 ranks, got %d", p)
	}
	listeners := make([]net.Listener, p)
	for i := range listeners {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
	}
	return listeners, nil
}

// MeshOver dials the full mesh whose rank i accepts on listeners[i], every
// rank concurrently with the given options, and closes the listeners: a
// formed mesh no longer needs them. On failure every peer opened so far is
// torn down.
func MeshOver(listeners []net.Listener, timeout time.Duration, opts ...Option) ([]*Peer, error) {
	p := len(listeners)
	addrs := make([]string, p)
	for i, ln := range listeners {
		addrs[i] = ln.Addr().String()
	}
	peers := make([]*Peer, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			peers[i], errs[i] = Dial(i, addrs, listeners[i], timeout, opts...)
		}()
	}
	wg.Wait()
	for _, ln := range listeners {
		ln.Close()
	}
	for i, err := range errs {
		if err != nil {
			CloseMesh(peers)
			return nil, fmt.Errorf("netmpi: mesh formation: rank %d: %w", i, err)
		}
	}
	return peers, nil
}

// HybridMesh is LoopbackMesh with a co-location map: links between ranks
// sharing a node id run over in-process shared-memory segments, everything
// else over framed TCP. nodes[i] is rank i's node id; a nil nodes forms a
// plain TCP mesh. One ShmHub is created for the whole mesh, so every co-located
// pair attaches the same segment.
func HybridMesh(p int, nodes []int, timeout time.Duration, opts ...Option) ([]*Peer, error) {
	if nodes == nil {
		return LoopbackMesh(p, timeout, opts...)
	}
	if len(nodes) != p {
		return nil, fmt.Errorf("netmpi: colocation vector covers %d ranks, mesh has %d", len(nodes), p)
	}
	hub := NewShmHub()
	all := append([]Option{WithColocation(hub, nodes)}, opts...)
	return LoopbackMesh(p, timeout, all...)
}

// Colocation resolves a command's -transport/-colocate pair into the
// co-location vector WithColocation takes: nil for "tcp"; for "hybrid" the
// parsed colocate spec or, when that is empty, the nodes the named placement
// puts the p ranks on in the named cluster — the ranks the simulator would put
// on one node share memory on the live mesh too.
func Colocation(transport, colocate, cluster, placement string, p int) ([]int, error) {
	switch {
	case transport == "tcp" && colocate != "":
		return nil, fmt.Errorf("-colocate needs -transport hybrid")
	case transport == "tcp":
		return nil, nil
	case transport != "hybrid":
		return nil, fmt.Errorf("unknown transport %q: want tcp or hybrid", transport)
	case colocate != "":
		return ParseColocation(colocate, p)
	}
	spec, err := topo.ClusterByName(cluster)
	if err != nil {
		return nil, err
	}
	pl, err := topo.PlacementByName(placement)
	if err != nil {
		return nil, err
	}
	return NodesFromPlacement(spec, pl, p)
}

// CloseMesh closes every peer of a mesh.
func CloseMesh(peers []*Peer) {
	for _, pe := range peers {
		if pe != nil {
			pe.Close()
		}
	}
}
