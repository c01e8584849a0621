package topo

import "fmt"

// Placement maps the ranks of a P-process job onto cores of a machine. The
// paper enforces a one-to-one rank/core mapping with sched_setaffinity; the
// simulated equivalent is an explicit assignment of one distinct core per
// rank.
type Placement interface {
	// Name identifies the strategy in reports.
	Name() string
	// Assign returns, for each rank 0..p-1, the global core index it is
	// pinned to. Cores must be distinct and within the machine.
	Assign(spec Spec, p int) ([]int, error)
}

// checkAssignment validates an assignment produced by a Placement.
func checkAssignment(spec Spec, p int, cores []int) error {
	if len(cores) != p {
		return fmt.Errorf("topo: placement produced %d cores for %d ranks", len(cores), p)
	}
	seen := make(map[int]bool, p)
	for r, c := range cores {
		if c < 0 || c >= spec.TotalCores() {
			return fmt.Errorf("topo: rank %d pinned to core %d outside %q", r, c, spec.Name)
		}
		if seen[c] {
			return fmt.Errorf("topo: core %d assigned to more than one rank", c)
		}
		seen[c] = true
	}
	return nil
}

// usedNodes returns the number of nodes a P-rank job occupies: the paper's
// schedulers allocate ⌈P / coresPerNode⌉ nodes.
func usedNodes(spec Spec, p int) int {
	per := spec.CoresPerNode()
	n := (p + per - 1) / per
	if n > spec.Nodes {
		n = spec.Nodes
	}
	return n
}

// PlacementByName returns the placement a command-line -placement value
// names: round-robin or block.
func PlacementByName(name string) (Placement, error) {
	for _, pl := range []Placement{RoundRobin{}, Block{}} {
		if pl.Name() == name {
			return pl, nil
		}
	}
	return nil, fmt.Errorf("unknown placement %q: want round-robin or block", name)
}

// Block fills nodes one at a time: ranks 0..C-1 on node 0, and so on. This is
// the "compact" mapping.
type Block struct{}

// Name implements Placement.
func (Block) Name() string { return "block" }

// Assign implements Placement.
func (Block) Assign(spec Spec, p int) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 || p > spec.TotalCores() {
		return nil, fmt.Errorf("topo: block placement of %d ranks on %q with %d cores", p, spec.Name, spec.TotalCores())
	}
	cores := make([]int, p)
	for r := range cores {
		cores[r] = r
	}
	return cores, checkAssignment(spec, p, cores)
}

// RoundRobin distributes ranks across the allocated nodes in a cycle: rank r
// runs on node r mod n, in core slot r / n of that node. This reproduces the
// scheduler behaviour on the paper's dual hex-core cluster, which causes the
// dissemination barrier's odd/even oscillation in the 2-node region of
// Figure 5 ("the scheduling software on this cluster maps processes to nodes
// in a round-robin fashion").
type RoundRobin struct{}

// Name implements Placement.
func (RoundRobin) Name() string { return "round-robin" }

// Assign implements Placement.
func (RoundRobin) Assign(spec Spec, p int) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 || p > spec.TotalCores() {
		return nil, fmt.Errorf("topo: round-robin placement of %d ranks on %q with %d cores", p, spec.Name, spec.TotalCores())
	}
	n := usedNodes(spec, p)
	per := spec.CoresPerNode()
	cores := make([]int, p)
	slot := make([]int, n) // next free core slot per node
	for r := 0; r < p; r++ {
		node := r % n
		if slot[node] >= per {
			// p > n*per cannot happen (usedNodes guarantees capacity), but
			// guard against uneven exhaustion when p is close to capacity:
			// spill to the next node with room.
			for d := 0; d < n; d++ {
				cand := (node + d) % n
				if slot[cand] < per {
					node = cand
					break
				}
			}
		}
		cores[r] = node*per + slot[node]
		slot[node]++
	}
	return cores, checkAssignment(spec, p, cores)
}

// Permutation pins rank r to Cores[r] verbatim; it models arbitrary affinity
// files and is used in tests and ablations.
type Permutation struct {
	Label string
	Cores []int
}

// Name implements Placement.
func (pm Permutation) Name() string {
	if pm.Label != "" {
		return pm.Label
	}
	return "permutation"
}

// Assign implements Placement.
func (pm Permutation) Assign(spec Spec, p int) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p != len(pm.Cores) {
		return nil, fmt.Errorf("topo: permutation of %d cores used for %d ranks", len(pm.Cores), p)
	}
	cores := append([]int(nil), pm.Cores...)
	return cores, checkAssignment(spec, p, cores)
}
