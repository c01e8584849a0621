// Package fabric is the ground-truth communication cost model of the
// simulated cluster — the stand-in for the physical interconnects of the
// paper's two test systems.
//
// Each link class of the machine (shared-cache, same-socket, cross-socket,
// cross-node) carries three cost parameters mirroring the paper's topological
// model (§IV): Alpha, the startup overhead of one message (the off-diagonal
// O entries); Beta, the per-byte transfer cost; and Lambda, the marginal cost
// of adding one more message to a batch already being injected (the L
// entries). A per-class log-normal noise factor models run-to-run variation.
// The model is the *simulated hardware*: the tuner never reads it directly,
// it only sees the estimates recovered by internal/probe, exactly as the
// paper's method only sees benchmark results.
package fabric

import (
	"fmt"
	"sort"

	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

// Link holds the ground-truth cost parameters of one link class. All times
// are in seconds; Beta is seconds per byte.
type Link struct {
	Alpha  float64 // startup overhead of one message
	Beta   float64 // transfer cost per byte
	Lambda float64 // marginal cost per extra message in a batch
	Sigma  float64 // log-normal noise sigma applied multiplicatively
}

// Params parameterises a fabric.
type Params struct {
	// Classes maps every link class that can occur on the machine to its
	// cost. Self entries are ignored (a rank does not message itself).
	Classes map[topo.LinkClass]Link
	// SelfOverhead is the ground truth for the paper's Oii parameter: the
	// software cost of initiating a communication request that causes no
	// transmission.
	SelfOverhead float64
	// SelfSigma is the log-normal noise on SelfOverhead.
	SelfSigma float64
	// NICOccupancy is the time a cross-node message occupies its source
	// node's network interface (serialisation). Used only when the runtime
	// enables congestion modelling; 0 disables it.
	NICOccupancy float64
	// DirectionSkew makes links asymmetric: messages travelling from a
	// higher-numbered core to a lower-numbered one have their startup and
	// batch-marginal costs multiplied by (1 + DirectionSkew). The paper
	// assumes symmetry for simplicity but notes the asymmetric extension is
	// trivial (§IV.A); this knob exercises that extension.
	DirectionSkew float64
	// Seed drives all noise. Identical seeds replay identical costs.
	Seed uint64
}

// Fabric resolves per-rank message costs for one placed job: a machine spec,
// a placement of P ranks onto cores, and the link cost parameters.
//
// Every cost sample advances the one noise stream, so a Fabric (and any
// mpi.World over it) must be driven by one goroutine at a time; sharing one
// across goroutines is unsupported. Separate fabrics are independent.
type Fabric struct {
	spec   topo.Spec
	params Params
	cores  []int       // rank -> global core
	seats  []topo.Seat // rank -> resolved position, so classifying a message divides nothing
	// links[c] is the cost of class c as given; skewed[c] has DirectionSkew
	// applied (messages from a higher-numbered core to a lower one).
	links, skewed [topo.NumLinkClasses]Link

	rng *stats.RNG
}

// New places p ranks on the machine using pl and returns the cost oracle for
// that job. params.Classes must cover CrossNode on a multi-node spec and
// every link class some pair of the placed ranks is connected by.
func New(spec topo.Spec, pl topo.Placement, p int, params Params) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cores, err := pl.Assign(spec, p)
	if err != nil {
		return nil, err
	}
	if spec.Nodes > 1 && !hasClass(params, topo.CrossNode) {
		return nil, fmt.Errorf("fabric: params missing required class %v for multi-node spec %q", topo.CrossNode, spec.Name)
	}
	f := &Fabric{
		spec:   spec,
		params: params,
		cores:  cores,
		seats:  make([]topo.Seat, p),
		rng:    stats.NewRNG(params.Seed),
	}
	for r, c := range cores {
		f.seats[r] = spec.SeatAt(c)
	}
	// The machine is a tree and global core order is its depth-first order,
	// so every class that occurs between any two ranks also occurs between
	// two ranks adjacent in core order.
	byCore := make([]int, p)
	for r := range byCore {
		byCore[r] = r
	}
	sort.Slice(byCore, func(a, b int) bool { return cores[byCore[a]] < cores[byCore[b]] })
	for k := 1; k < p; k++ {
		lo, hi := byCore[k-1], byCore[k]
		if c := f.seats[lo].ClassTo(f.seats[hi]); !hasClass(params, c) {
			return nil, fmt.Errorf("fabric: params missing class %v connecting ranks %d and %d on %q", c, lo, hi, spec.Name)
		}
	}
	skew := 1.0
	if params.DirectionSkew > 0 {
		skew += params.DirectionSkew
	}
	for c, l := range params.Classes {
		if c <= topo.Self || c >= topo.NumLinkClasses {
			continue // Self entries are ignored; nothing else can be produced
		}
		f.links[c] = l
		l.Alpha *= skew
		l.Lambda *= skew
		f.skewed[c] = l
	}
	return f, nil
}

func hasClass(params Params, c topo.LinkClass) bool {
	_, ok := params.Classes[c]
	return ok
}

// P returns the number of ranks in the job.
func (f *Fabric) P() int { return len(f.cores) }

// Spec returns the machine description.
func (f *Fabric) Spec() topo.Spec { return f.spec }

// NodeOf returns the node index rank r is pinned to.
func (f *Fabric) NodeOf(r int) int {
	f.checkRank(r)
	return f.seats[r].Node
}

// Class returns the link class between two ranks.
func (f *Fabric) Class(src, dst int) topo.LinkClass {
	f.checkRank(src)
	f.checkRank(dst)
	return f.seats[src].ClassTo(f.seats[dst])
}

func (f *Fabric) checkRank(r int) {
	if r < 0 || r >= len(f.cores) {
		panic(fmt.Sprintf("fabric: rank %d out of range for %d-rank job", r, len(f.cores)))
	}
}

// link returns the cost parameters of the link from src to dst, two distinct
// ranks; New has verified the class table covers every such pair.
func (f *Fabric) link(src, dst int) *Link {
	c := f.Class(src, dst)
	if f.cores[src] > f.cores[dst] {
		return &f.skewed[c]
	}
	return &f.links[c]
}

func (f *Fabric) noise(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return f.rng.LogNorm(sigma)
}

// SendOverhead returns one noisy sample of the cost of starting a message of
// the given size from src to dst — the ground truth behind the paper's Oij
// plus the size-dependent transfer term. Startup jitter dominates in real
// interconnects while achieved bandwidth is comparatively stable, so the
// noise on the transfer term is a third of the startup sigma.
func (f *Fabric) SendOverhead(src, dst, bytes int) float64 {
	if src == dst {
		return f.SelfOverhead(src)
	}
	l := f.link(src, dst)
	cost := l.Alpha * f.noise(l.Sigma)
	if bytes > 0 {
		cost += l.Beta * float64(bytes) * f.noise(l.Sigma/3)
	}
	return cost
}

// BatchMarginal returns one noisy sample of the cost of appending one more
// message from src to dst to a non-empty simultaneous send batch — the ground
// truth behind the paper's Lij.
func (f *Fabric) BatchMarginal(src, dst int) float64 {
	if src == dst {
		panic(fmt.Sprintf("fabric: BatchMarginal of rank %d to itself", src))
	}
	l := f.link(src, dst)
	return l.Lambda * f.noise(l.Sigma)
}

// SelfOverhead returns one noisy sample of the cost of initiating a request
// that causes no transmission — the ground truth behind the paper's Oii.
func (f *Fabric) SelfOverhead(rank int) float64 {
	f.checkRank(rank)
	return f.params.SelfOverhead * f.noise(f.params.SelfSigma)
}

// NICOccupancy returns the source-NIC serialisation time of one cross-node
// message of the given size, or 0 for intra-node traffic or when congestion
// modelling is disabled.
func (f *Fabric) NICOccupancy(src, dst, bytes int) float64 {
	if f.params.NICOccupancy <= 0 || f.Class(src, dst) != topo.CrossNode {
		return 0
	}
	l := f.link(src, dst)
	return f.params.NICOccupancy + l.Beta*float64(bytes)
}

// TrueO returns the noise-free startup cost of a zero-byte message between
// two ranks (diagonal: SelfOverhead). Tests compare profiled estimates
// against this.
func (f *Fabric) TrueO(src, dst int) float64 {
	if src == dst {
		return f.params.SelfOverhead
	}
	return f.link(src, dst).Alpha
}

// TrueL returns the noise-free batch-marginal cost between two ranks.
func (f *Fabric) TrueL(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return f.link(src, dst).Lambda
}

// TrueProfile returns the noise-free topological profile of the placed job:
// what a perfect profiler would measure. The adaptive pipeline normally uses
// probed estimates; the oracle profile supports tests and the ablation that
// separates model error from measurement error.
func (f *Fabric) TrueProfile() *profile.Profile {
	p := len(f.cores)
	pf := profile.New(f.spec.Name+" (oracle)", p)
	o, l := pf.O.Data(), pf.L.Data()
	for i, si := range f.seats {
		orow, lrow := o[i*p:(i+1)*p], l[i*p:(i+1)*p]
		for j, sj := range f.seats {
			links := &f.links
			if f.cores[i] > f.cores[j] {
				links = &f.skewed
			}
			lk := &links[si.ClassTo(sj)]
			orow[j], lrow[j] = lk.Alpha, lk.Lambda
		}
		orow[i], lrow[i] = f.params.SelfOverhead, 0
	}
	return pf
}
