package fabric

import "topobarrier/internal/topo"

// The preset parameter values below are calibrated so that the simulated
// clusters reproduce the *magnitudes and ratios* visible in the paper's
// plots, not any authors' raw numbers (which are unavailable):
//
//   - inter-node (GigE + TCP stack) startup in the tens of microseconds,
//     so that the linear barrier tops out near a millisecond at P≈64 and
//     the tree barrier stays under ~0.8 ms (Figures 5-8);
//   - on-chip vs off-chip intra-node marginal latency differing by roughly
//     a factor 4 (Figure 9, "around a factor 4 observable difference
//     between on-chip and off-chip messages");
//   - intra-node costs two orders of magnitude below inter-node costs, the
//     gap the adaptive method exploits (§III).
//
// Noise sigmas give the run-to-run spread the paper reports (its model error
// floor is ~200 µs at full scale, dominated by commodity-OS jitter on the
// slow links).

// GigEParams returns cost parameters for a commodity gigabit-ethernet cluster
// of SMP nodes, used for both paper machines.
func GigEParams(seed uint64) Params {
	return Params{
		Classes: map[topo.LinkClass]Link{
			topo.SharedCache: {Alpha: 0.55e-6, Beta: 0.30e-9, Lambda: 0.15e-6, Sigma: 0.06},
			topo.SameSocket:  {Alpha: 0.80e-6, Beta: 0.35e-9, Lambda: 0.20e-6, Sigma: 0.06},
			topo.CrossSocket: {Alpha: 1.60e-6, Beta: 0.45e-9, Lambda: 0.60e-6, Sigma: 0.08},
			topo.CrossNode:   {Alpha: 55e-6, Beta: 8.0e-9, Lambda: 8.0e-6, Sigma: 0.12},
		},
		SelfOverhead: 0.9e-6,
		SelfSigma:    0.05,
		NICOccupancy: 2.0e-6,
		Seed:         seed,
	}
}

// ScaleClusterSpec returns a synthetic hierarchical machine shape for
// large-P tuning studies: nodes dual-socket nodes with exactly enough cores
// per socket to host p ranks under block placement. The paper's machines top
// out at 120 cores; this preset extrapolates the same three-layer hierarchy
// (shared cache pair, socket, node) to P=1024 and beyond so the scaling of
// the tuning engine itself can be measured. A non-positive nodes means about
// one node per 32 ranks.
func ScaleClusterSpec(p, nodes int) topo.Spec {
	if nodes <= 0 {
		nodes = max(1, (p+31)/32)
	}
	perSocket := (p + 2*nodes - 1) / (2 * nodes)
	if perSocket < 1 {
		perSocket = 1
	}
	return topo.Spec{
		Name:           "synthetic scale cluster",
		Nodes:          nodes,
		SocketsPerNode: 2,
		CoresPerSocket: perSocket,
		CacheGroup:     2,
	}
}

// ScaleClusterFabric places p ranks block-wise (dense nodes — the placement
// that gives the locality structure a hierarchical barrier exploits) on a
// synthetic nodes-node dual-socket cluster with GigE-class interconnect
// parameters, and returns its cost oracle.
func ScaleClusterFabric(p, nodes int, seed uint64) (*Fabric, error) {
	return New(ScaleClusterSpec(p, nodes), topo.Block{}, p, GigEParams(seed))
}

// IBParams returns cost parameters for a low-latency RDMA-class interconnect
// (single-digit-µs startup across nodes). §VI notes that such systems narrow
// the gap the commodity-cluster noise floor imposes on prediction accuracy —
// and they also narrow the locality gap the adaptive method exploits, which
// the ablation tests quantify.
func IBParams(seed uint64) Params {
	return Params{
		Classes: map[topo.LinkClass]Link{
			topo.SharedCache: {Alpha: 0.55e-6, Beta: 0.30e-9, Lambda: 0.15e-6, Sigma: 0.04},
			topo.SameSocket:  {Alpha: 0.80e-6, Beta: 0.35e-9, Lambda: 0.20e-6, Sigma: 0.04},
			topo.CrossSocket: {Alpha: 1.60e-6, Beta: 0.45e-9, Lambda: 0.60e-6, Sigma: 0.05},
			topo.CrossNode:   {Alpha: 4.0e-6, Beta: 0.35e-9, Lambda: 0.8e-6, Sigma: 0.05},
		},
		SelfOverhead: 0.5e-6,
		SelfSigma:    0.04,
		NICOccupancy: 0.3e-6,
		Seed:         seed,
	}
}
