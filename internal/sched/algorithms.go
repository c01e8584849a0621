package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"topobarrier/internal/mat"
)

// ceilLog2 returns ⌈log2 n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// LinearArrival returns the 1-stage arrival phase of the linear barrier over
// p local ranks: every rank signals rank 0, which counts arrivals (Figure 2).
func LinearArrival(p int) *Schedule {
	s := New(fmt.Sprintf("linear-arrival(%d)", p), p)
	if p == 1 {
		return s
	}
	m := mat.NewBool(p)
	for i := 1; i < p; i++ {
		m.Set(i, 0, true)
	}
	s.AddStage(m)
	return s
}

// Linear returns the full 2-stage linear barrier: arrival plus the transposed
// departure broadcast.
func Linear(p int) *Schedule {
	arr := LinearArrival(p)
	full := arr.Clone().Concat(arr.ReverseTransposed())
	full.Name = fmt.Sprintf("linear(%d)", p)
	return full
}

// Dissemination returns the ⌈log2 p⌉-stage dissemination barrier: in stage s
// every rank i signals (i + 2^s) mod p (Figure 3). After the final stage all
// ranks know all arrivals, so the algorithm needs no departure phase — the
// property §VII.B exploits when it is chosen at the root of a hierarchy.
func Dissemination(p int) *Schedule {
	s := New(fmt.Sprintf("dissemination(%d)", p), p)
	for e := 0; e < ceilLog2(p); e++ {
		m := mat.NewBool(p)
		step := 1 << uint(e)
		for i := 0; i < p; i++ {
			m.Set(i, (i+step)%p, true)
		}
		s.AddStage(m)
	}
	return s
}

// TreeArrival returns the ⌈log2 p⌉-stage arrival phase of the binomial tree
// barrier: in stage s, each rank with i mod 2^(s+1) == 2^s signals i - 2^s
// (Figure 4). Rank 0 knows all arrivals afterwards.
func TreeArrival(p int) *Schedule {
	s := New(fmt.Sprintf("tree-arrival(%d)", p), p)
	for e := 0; e < ceilLog2(p); e++ {
		m := mat.NewBool(p)
		lo, hi := 1<<uint(e), 1<<uint(e+1)
		for i := lo; i < p; i += hi {
			m.Set(i, i-lo, true)
		}
		s.AddStage(m)
	}
	return s
}

// Tree returns the full 2·⌈log2 p⌉-stage binary tree barrier of the paper's
// Figure 4: binomial arrival followed by the reversed transposed departure.
func Tree(p int) *Schedule {
	arr := TreeArrival(p)
	full := arr.Clone().Concat(arr.ReverseTransposed())
	full.Name = fmt.Sprintf("tree(%d)", p)
	return full
}

// RecursiveDoubling returns the pairwise-exchange (butterfly) barrier: in
// stage s ranks i and i XOR 2^s exchange signals. It is defined for powers of
// two; other sizes fall back to Dissemination, which generalises the same
// communication idea to arbitrary p. This is an extension component beyond
// the paper's three building blocks.
func RecursiveDoubling(p int) *Schedule {
	if p&(p-1) != 0 {
		s := Dissemination(p)
		s.Name = fmt.Sprintf("recursive-doubling→dissemination(%d)", p)
		return s
	}
	s := New(fmt.Sprintf("recursive-doubling(%d)", p), p)
	for e := 0; e < ceilLog2(p); e++ {
		m := mat.NewBool(p)
		for i := 0; i < p; i++ {
			m.Set(i, i^(1<<uint(e)), true)
		}
		s.AddStage(m)
	}
	return s
}

// RingArrival returns a (p-1)-stage token-passing arrival: stage s carries a
// single signal from rank s to rank s+1, so rank p-1 learns of all arrivals.
// A deliberately serial extension component; useful as a pathological case in
// tests and ablations.
func RingArrival(p int) *Schedule {
	s := New(fmt.Sprintf("ring-arrival(%d)", p), p)
	for i := 0; i+1 < p; i++ {
		m := mat.NewBool(p)
		m.Set(i, i+1, true)
		s.AddStage(m)
	}
	return s
}

// Ring returns the full token-ring barrier: the token travels to rank p-1 and
// back.
func Ring(p int) *Schedule {
	arr := RingArrival(p)
	full := arr.Clone().Concat(arr.ReverseTransposed())
	full.Name = fmt.Sprintf("ring(%d)", p)
	return full
}

// KAryTreeArrival returns the arrival phase of a k-ary tree: in each stage,
// every group of up to k non-root children signals its group root, recursing
// until rank 0 holds all knowledge. k must be ≥ 2. An extension component.
func KAryTreeArrival(p, k int) *Schedule {
	if k < 2 {
		panic(fmt.Sprintf("sched: %d-ary tree", k))
	}
	s := New(fmt.Sprintf("%d-ary-tree-arrival(%d)", k, p), p)
	// In stage e, ranks that are multiples of k^e but not of k^(e+1) signal
	// their parent (the enclosing multiple of k^(e+1)), plus the remainder
	// ranks in between.
	stride := 1
	for stride < p {
		m := mat.NewBool(p)
		next := stride * k
		for base := 0; base < p; base += next {
			for c := base + stride; c < base+next && c < p; c += stride {
				m.Set(c, base, true)
			}
		}
		s.AddStage(m)
		stride = next
	}
	return s
}

// SymmetricDissemination returns the pairwise (bidirectional) dissemination
// barrier: in stage s every rank i signals both (i + 2^s) mod p and
// (i - 2^s) mod p. Where plain dissemination carries each knowledge pair
// along exactly one chain (the binary decomposition of j - i, so silencing
// any interior relay stalls the pair), the signed-digit variant gives every
// pair either a direct signal or two internally rank-disjoint chains — the
// redundancy that makes it certify as 1-fault-resilient (analyze.CertifyK)
// where every classic component produces a counterexample. It costs one
// extra signal per rank per stage over Dissemination and, like it, needs no
// departure phase.
func SymmetricDissemination(p int) *Schedule {
	s := New(fmt.Sprintf("symmetric-dissemination(%d)", p), p)
	for e := 0; e < ceilLog2(p); e++ {
		m := mat.NewBool(p)
		step := 1 << uint(e)
		for i := 0; i < p; i++ {
			m.Set(i, (i+step)%p, true)
			m.Set(i, ((i-step)%p+p)%p, true)
		}
		s.AddStage(m)
	}
	return s
}

// Builder is one component algorithm of the adaptive composer (§VII.B), built
// over n local members with member 0 acting as the group root.
type Builder struct {
	// Name identifies the algorithm in reports and generated code.
	Name string
	// Arrival returns the phase after which the root knows all arrivals.
	Arrival func(n int) *Schedule
	// NeedsDeparture reports whether a departure phase (reversed transposes)
	// must follow when this component is used at the root of the hierarchy.
	// It is false exactly when Arrival leaves *every* member, not just the
	// root, with complete knowledge.
	NeedsDeparture bool
}

// ringToRoot is the token-ring component's arrival: RingArrival, which roots
// knowledge at member n-1, plus a final hop back to the group root 0.
func ringToRoot(n int) *Schedule {
	s := RingArrival(n)
	if n > 1 {
		m := mat.NewBool(n)
		m.Set(n-1, 0, true)
		s.AddStage(m)
	}
	return s
}

// kAry returns the k-ary tree component.
func kAry(k int) Builder {
	arrival := func(n int) *Schedule { return KAryTreeArrival(n, k) }
	return Builder{Name: fmt.Sprintf("%d-ary-tree", k), Arrival: arrival, NeedsDeparture: true}
}

// Named returns the p-rank schedule a command-line -alg value names: a
// classic generator — tree, linear, dissemination, ring, rd (or
// recursive-doubling) — or, for a name ending in ".json", the schedule stored
// in that file, which must be for p ranks. A loaded schedule is untrusted:
// callers vet it (analyze.Vet) before executing it.
func Named(name string, p int) (*Schedule, error) {
	if gen, ok := map[string]func(int) *Schedule{
		"tree": Tree, "linear": Linear, "dissemination": Dissemination, "ring": Ring,
		"rd": RecursiveDoubling, "recursive-doubling": RecursiveDoubling,
	}[name]; ok {
		return gen(p), nil
	}
	if !strings.HasSuffix(name, ".json") {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", name, err)
	}
	if s.P != p {
		return nil, fmt.Errorf("schedule %q is for %d ranks, job has %d", s.Name, s.P, p)
	}
	return &s, nil
}

// PaperBuilders returns the paper's three component algorithms (§V.B), in the
// order the composer breaks cost ties by: the earlier one is kept.
func PaperBuilders() []Builder {
	return []Builder{
		{Name: "linear", Arrival: LinearArrival, NeedsDeparture: true},
		{Name: "dissemination", Arrival: Dissemination},
		{Name: "tree", Arrival: TreeArrival, NeedsDeparture: true},
	}
}

// ExtendedBuilders returns the paper's components plus the extension
// components of this implementation, the token ring and the 4-ary tree
// (§VIII suggests generalising the component set).
func ExtendedBuilders() []Builder {
	return append(PaperBuilders(), Builder{Name: "ring", Arrival: ringToRoot, NeedsDeparture: true}, kAry(4))
}
