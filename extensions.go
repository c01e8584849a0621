package topobarrier

import (
	"net"
	"time"

	"topobarrier/internal/critpath"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/search"
)

// This file exposes the extensions beyond the paper's core method: searched
// schedules (§VII.B's wider space), execution tracing, and the real-network
// mesh that runs the same compiled plans.

// Search (see internal/search).
type (
	// SearchResult is a searched schedule and its predicted cost.
	SearchResult = search.Result
	// AnnealOptions configures the local search.
	AnnealOptions = search.AnnealOptions
	// SearchProgress is one per-round snapshot of the portfolio annealer,
	// delivered through AnnealOptions.Progress.
	SearchProgress = search.Progress
)

// AnnealSearch hill-climbs from a seed schedule with signal-level mutations.
func AnnealSearch(pd *Predictor, seed *Schedule, opts AnnealOptions) (*SearchResult, error) {
	return search.Anneal(pd, seed, opts)
}

// Tracing (see internal/critpath).

// ExecutionTimeline is the record of one barrier execution: its matched
// messages, realized critical path, per-stage completions, Gantt and per-link
// blame.
type ExecutionTimeline = critpath.Timeline

// TraceBarrier executes b once on a traced world over fab and returns the
// execution's timeline and its elapsed virtual time.
func TraceBarrier(fab *Fabric, b BarrierFunc, opts ...WorldOption) (*ExecutionTimeline, float64, error) {
	return critpath.Sim(fab, func(c *Comm) { b(c, 0) }, opts...)
}

// Deployment (see internal/netmpi).

// NetPeer is one rank's endpoint of a real TCP mesh executing tuned plans.
// The mesh is fail-fast: the first dead link wakes every blocked Recv —
// bounded-deadline or not — with a descriptive error, so a crashed peer
// cannot hang the survivors (see internal/netmpi's failure model). It is a
// Stager, so the functions GenerateSource emits run on it.
type NetPeer = netmpi.Peer

// NetListen opens a rank's mesh listener.
func NetListen(addr string) (net.Listener, error) { return netmpi.Listen(addr) }

// NetDial builds the TCP mesh for one rank. Dials retry refused connections
// with exponential backoff within the timeout, so ranks may start in any
// order.
func NetDial(rank int, addrs []string, ln net.Listener, timeout time.Duration) (*NetPeer, error) {
	return netmpi.Dial(rank, addrs, ln, timeout)
}
