// Package topo describes the physical structure of a simulated cluster and
// the placement of MPI ranks onto its cores.
//
// The paper's target platforms are clusters of multi-socket, multi-core
// nodes; the dominant performance parameter is which interconnect layer a
// pair of communicating ranks must cross. This package captures exactly that:
// a Spec names the machine shape (nodes × sockets × cores, plus an optional
// shared-cache pairing within a socket), Classify resolves a pair of cores to
// the link class connecting them, and Placement reproduces the process-to-
// core mappings the paper controls with sched_setaffinity — including the
// round-robin node mapping whose odd/even oscillation Figure 5 exhibits.
package topo

import "fmt"

// LinkClass identifies the slowest interconnect layer a signal between two
// cores must traverse. Classes are ordered from fastest to slowest.
type LinkClass int

const (
	// Self is the degenerate class of a core signalling itself.
	Self LinkClass = iota
	// SharedCache connects cores on the same socket that also share a last-
	// level cache slice (cores 2k and 2k+1 of a socket, as on the Xeon E5405
	// whose two 6 MB L2 caches each serve a pair of cores).
	SharedCache
	// SameSocket connects cores on the same socket without a shared cache
	// slice.
	SameSocket
	// CrossSocket connects cores on different sockets of the same node.
	CrossSocket
	// CrossNode connects cores on different nodes (the cluster interconnect;
	// gigabit ethernet on both of the paper's test systems).
	CrossNode

	// NumLinkClasses is the number of distinct classes.
	NumLinkClasses
)

// String returns a short name for the class.
func (c LinkClass) String() string {
	switch c {
	case Self:
		return "self"
	case SharedCache:
		return "shared-cache"
	case SameSocket:
		return "same-socket"
	case CrossSocket:
		return "cross-socket"
	case CrossNode:
		return "cross-node"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Spec describes a homogeneous cluster of identical SMP nodes.
type Spec struct {
	Name           string
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int
	// CacheGroup is the number of cores sharing a last-level cache slice
	// within a socket. 0 or 1 disables the SharedCache class. The Xeon E5405
	// quad-core has CacheGroup 2; the Opteron 2431 hex-core shares one L3
	// across the socket, so its spec uses CacheGroup 0.
	CacheGroup int
}

// Validate reports an error if the spec is not a usable machine description.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.SocketsPerNode <= 0 || s.CoresPerSocket <= 0 {
		return fmt.Errorf("topo: spec %q has non-positive shape %d×%d×%d",
			s.Name, s.Nodes, s.SocketsPerNode, s.CoresPerSocket)
	}
	if s.CacheGroup < 0 || s.CacheGroup > s.CoresPerSocket {
		return fmt.Errorf("topo: spec %q has cache group %d outside socket of %d cores",
			s.Name, s.CacheGroup, s.CoresPerSocket)
	}
	return nil
}

// CoresPerNode returns the number of cores on one node.
func (s Spec) CoresPerNode() int { return s.SocketsPerNode * s.CoresPerSocket }

// TotalCores returns the number of cores in the whole cluster.
func (s Spec) TotalCores() int { return s.Nodes * s.CoresPerNode() }

// Core identifies one core by position in the hierarchy.
type Core struct {
	Node   int
	Socket int // within node
	Index  int // within socket
}

// CoreAt converts a global core index (node-major, then socket, then core)
// into its hierarchical position. It panics on out-of-range input.
func (s Spec) CoreAt(global int) Core {
	if global < 0 || global >= s.TotalCores() {
		panic(fmt.Sprintf("topo: core %d out of range for %q (%d cores)", global, s.Name, s.TotalCores()))
	}
	perNode := s.CoresPerNode()
	return Core{
		Node:   global / perNode,
		Socket: (global % perNode) / s.CoresPerSocket,
		Index:  global % s.CoresPerSocket,
	}
}

// Seat is a core's position with its cache slice resolved, so that
// classifying a pair of seats is comparison only. Callers that classify the
// same cores repeatedly (the fabric, once per simulated message) resolve
// seats once and skip CoreAt's divisions.
type Seat struct {
	Core
	// Slice identifies the last-level cache slice within the socket. On a
	// machine without the SharedCache class every core is its own slice.
	Slice int
}

// SeatAt resolves a global core index; it panics on out-of-range input.
func (s Spec) SeatAt(global int) Seat {
	c := s.CoreAt(global)
	if s.CacheGroup > 1 {
		return Seat{Core: c, Slice: c.Index / s.CacheGroup}
	}
	return Seat{Core: c, Slice: c.Index}
}

// ClassTo returns the link class connecting two seats of one machine.
func (a Seat) ClassTo(b Seat) LinkClass {
	switch {
	case a.Node != b.Node:
		return CrossNode
	case a.Socket != b.Socket:
		return CrossSocket
	case a.Index == b.Index:
		return Self
	case a.Slice == b.Slice:
		return SharedCache
	default:
		return SameSocket
	}
}

// QuadCluster returns the paper's first test system: 8 nodes of dual
// quad-core Intel Xeon E5405 processors (§VI).
func QuadCluster() Spec {
	return Spec{Name: "8x dual quad-core Xeon E5405", Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4, CacheGroup: 2}
}

// HexCluster returns the paper's second test system: 10 nodes of dual
// hex-core AMD Opteron 2431 processors (§VI).
func HexCluster() Spec {
	return Spec{Name: "10x dual hex-core Opteron 2431", Nodes: 10, SocketsPerNode: 2, CoresPerSocket: 6, CacheGroup: 0}
}

// ClusterByName returns the machine a command-line -cluster value names:
// quad, hex, or single (one 2x4-core node).
func ClusterByName(name string) (Spec, error) {
	switch name {
	case "quad":
		return QuadCluster(), nil
	case "hex":
		return HexCluster(), nil
	case "single":
		return SingleNode(2, 4, 2), nil
	}
	return Spec{}, fmt.Errorf("unknown cluster %q: want quad, hex or single", name)
}

// SingleNode returns a one-node machine with the given socket/core shape,
// used for the Figure 9 single-node profile.
func SingleNode(sockets, cores, cacheGroup int) Spec {
	return Spec{
		Name:           fmt.Sprintf("1x %dx%d-core node", sockets, cores),
		Nodes:          1,
		SocketsPerNode: sockets,
		CoresPerSocket: cores,
		CacheGroup:     cacheGroup,
	}
}
