package analyze

import (
	"fmt"
	"math/bits"
	"sort"

	"topobarrier/internal/mat"
	"topobarrier/internal/sched"
)

// This file implements the k-fault resilience certifier: for a schedule and a
// fault budget k, decide whether the surviving ranks still satisfy the Eq. 3
// knowledge closure when any k ranks go silent.
//
// Fault model. A silent rank drops every send in every stage — it crashed, or
// its NIC did — but its incoming signals still land (and are wasted). The
// schedule survives fault set F iff for every pair of survivors (i, j), rank j
// still learns of rank i's arrival through chains that never use a silenced
// rank as a relay: Eq. 3 evaluated with the rows of F zeroed in every stage
// matrix, restricted to survivor×survivor entries. This is exactly the
// condition under which a failure-detecting transport (netmpi.BarrierResilient)
// that skips receives from dead peers still delivers barrier semantics to the
// survivors: every survivor's exit happens after every survivor's entry.
//
// Verdicts are exact per fault set. Certification is a proof when the subset
// space fits the enumeration budget (Exhaustive=true); above the budget the
// certifier degrades to a pruned counterexample search over critical
// candidate sets — articulation ranks of the union signal graph (found with
// the bitset reachability kernel) plus the ranks whose silencing leaves the
// closure thinnest — and says so (Exhaustive=false): a counterexample found
// there is still exact, a clean pass is strong evidence but not a proof.

// Resilience is the k-fault certification result for one schedule.
type Resilience struct {
	// K is the certified (or refuted) fault budget.
	K int `json:"k"`
	// P is the schedule's rank count.
	P int `json:"p"`
	// Certified reports whether every examined fault set of size ≤ K keeps
	// the survivors closed under Eq. 3.
	Certified bool `json:"certified"`
	// Exhaustive is true when every fault set of size ≤ K was checked, making
	// a Certified verdict a proof. False means the pruned candidate search
	// ran instead; a counterexample is still exact, a pass is not a proof.
	Exhaustive bool `json:"exhaustive"`
	// SubsetsChecked counts the fault sets whose closure was evaluated.
	SubsetsChecked int `json:"subsets_checked"`
	// Counterexample is a minimal silent rank set breaking the barrier
	// (every proper subset provably survives), nil when certified.
	Counterexample []int `json:"counterexample,omitempty"`
	// Stalled lists up to maxWitnessPairs survivor pairs (From arrives, To
	// never learns of it) witnessing the counterexample.
	Stalled []Pair `json:"stalled,omitempty"`
}

// ResilienceOptions tunes CertifyK. The zero value selects the defaults.
type ResilienceOptions struct {
	// MaxSubsets bounds the exhaustive enumeration; above it the pruned
	// candidate search runs instead. 0 selects the default of 1<<17.
	MaxSubsets int
}

const (
	defaultMaxSubsets = 1 << 17
	// maxWitnessPairs caps the stalled pairs reported with a counterexample.
	maxWitnessPairs = 8
)

// CertifyK decides k-fault resilience for the schedule. It requires a
// schedule that is a barrier in the fault-free case (callers gate on that);
// k must be positive and leave at least two survivors, otherwise the
// question is vacuous and the verdict is trivially certified.
func CertifyK(s *sched.Schedule, k int, opts ResilienceOptions) *Resilience {
	res := &Resilience{K: k, P: s.P, Certified: true, Exhaustive: true}
	if k <= 0 || s.P-k < 2 {
		return res
	}
	maxSubsets := opts.MaxSubsets
	if maxSubsets == 0 {
		maxSubsets = defaultMaxSubsets
	}

	ck := newClosureChecker(s)

	// Sizes ascend so the first failing set has minimum cardinality — and is
	// minimal outright: every proper subset was checked (or is checked here)
	// at a smaller size and survived.
	total := 0
	exhaustive := true
	for m := 1; m <= k; m++ {
		c := binomial(s.P, m)
		if total+c > maxSubsets && m > 1 {
			exhaustive = false
			break
		}
		total += c
		if found := ck.enumerate(m, res); found {
			return res
		}
	}
	if exhaustive {
		res.SubsetsChecked = total
		return res
	}

	// Pruned search: singleton results are already in hand (size 1 always
	// fits the budget); build candidate fault sets from articulation ranks of
	// the union graph and the ranks whose silencing left the closure
	// thinnest, then enumerate subsets of the candidate pool.
	res.Exhaustive = false
	ck.pruned(k, maxSubsets, res)
	return res
}

// closureChecker evaluates survivor closure for fault sets of one schedule on
// one mat.Closure, whose row slots it reuses across checks: the fault set is
// the closure's silence mask, so a silenced rank neither relays knowledge nor
// has to learn any, and the closure's know sets are the witness source.
type closureChecker struct {
	s       *sched.Schedule
	words   int
	cl      *mat.Closure
	silent  []uint64
	checked int
	// lateness[f] scores how thin the closure was with only rank f silent:
	// the number of stages after which the survivors still had holes.
	// Filled by the size-1 enumeration, consumed by pruning.
	lateness []int
}

func newClosureChecker(s *sched.Schedule) *closureChecker {
	words := (s.P + 63) / 64
	return &closureChecker{
		s:        s,
		words:    words,
		cl:       mat.NewClosure(s.P),
		silent:   make([]uint64, words),
		lateness: make([]int, s.P),
	}
}

// run evaluates Eq. 3 with the given ranks silenced and returns how many
// stages it took every survivor to learn of every survivor, or -1 when the
// survivors never close.
func (c *closureChecker) run(faults []int) int {
	clear(c.silent)
	for _, f := range faults {
		c.silent[f/64] |= 1 << (uint(f) % 64)
	}
	c.checked++
	return c.cl.Run(c.s.Stages, c.silent)
}

// stalledPairs lists the survivor pairs (i, j) — rank j never learns of rank
// i's arrival — left open by the last run, which must have failed.
func (c *closureChecker) stalledPairs(max int) []Pair {
	var out []Pair
	for i := 0; i < c.s.P && len(out) < max; i++ {
		if c.silent[i/64]&(1<<(uint(i)%64)) != 0 {
			continue
		}
		for j := 0; j < c.s.P && len(out) < max; j++ {
			if c.silent[j/64]&(1<<(uint(j)%64)) != 0 || c.cl.Know(j)[i/64]&(1<<(uint(i)%64)) != 0 {
				continue
			}
			out = append(out, Pair{From: i, To: j})
		}
	}
	return out
}

// enumerate checks every fault set of exactly size m, filling res and
// returning true on the first (minimum-cardinality, hence minimal)
// counterexample.
func (c *closureChecker) enumerate(m int, res *Resilience) bool {
	faults := make([]int, m)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == m {
			n := c.run(faults)
			if m == 1 && n >= 0 {
				// Thin-closure score for pruning: +1 per stage the closure
				// still had holes; late completion means little slack.
				c.lateness[faults[0]] = n - 1
			}
			if n < 0 {
				res.Certified = false
				res.Counterexample = append([]int(nil), faults...)
				res.Stalled = c.stalledPairs(maxWitnessPairs)
				res.SubsetsChecked = c.checked
				return true
			}
			return false
		}
		for f := start; f <= c.s.P-(m-idx); f++ {
			faults[idx] = f
			if rec(f+1, idx+1) {
				return true
			}
		}
		return false
	}
	found := rec(0, 0)
	if !found {
		res.SubsetsChecked = c.checked
	}
	return found
}

// pruned runs the candidate-set counterexample search for sizes 2..k after
// exhaustive size-1 checking already passed. Candidates are articulation
// ranks (their removal breaks static reachability over the union signal
// graph — any temporal chain needs a static path, so a ≤k-sized static cut
// is a counterexample outright) plus the top thin-closure ranks by the
// size-1 lateness score. Any failing subset found here is an exact,
// minimised counterexample.
func (c *closureChecker) pruned(k, maxSubsets int, res *Resilience) {
	type scored struct{ rank, score int }
	pool := make([]scored, 0, c.s.P)
	union := unionMatrix(c.s)
	unionT := union.T() // computed once, shared by every articulation probe
	for f := 0; f < c.s.P; f++ {
		score := c.lateness[f]
		if c.articulation(union, unionT, f) {
			score += c.s.NumStages() * c.s.P // dominates any lateness score
		}
		pool = append(pool, scored{f, score})
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].score != pool[b].score {
			return pool[a].score > pool[b].score
		}
		return pool[a].rank < pool[b].rank
	})

	// Grow the candidate pool to the largest M with sum_{m=2..k} C(M,m)
	// within the remaining budget.
	budget := maxSubsets - c.checked
	m := 2
	for m < len(pool) {
		cost := 0
		for sz := 2; sz <= k; sz++ {
			cost += binomial(m+1, sz)
		}
		if cost > budget {
			break
		}
		m++
	}
	cand := make([]int, 0, m)
	for _, sc := range pool[:m] {
		cand = append(cand, sc.rank)
	}
	sort.Ints(cand)

	faults := make([]int, 0, k)
	var rec func(start, size int) bool
	rec = func(start, size int) bool {
		if len(faults) == size {
			if c.run(faults) < 0 {
				res.Certified = false
				res.Counterexample = c.minimise(append([]int(nil), faults...))
				// Re-evaluate the minimised set for accurate witnesses.
				c.run(res.Counterexample)
				res.Stalled = c.stalledPairs(maxWitnessPairs)
				return true
			}
			return false
		}
		for i := start; i < len(cand); i++ {
			faults = append(faults, cand[i])
			if rec(i+1, size) {
				return true
			}
			faults = faults[:len(faults)-1]
		}
		return false
	}
	for size := 2; size <= k; size++ {
		if rec(0, size) {
			break
		}
	}
	res.SubsetsChecked = c.checked
}

// minimise shrinks a counterexample to a minimal one: repeatedly drop any
// member whose removal still breaks the closure.
func (c *closureChecker) minimise(faults []int) []int {
	for changed := true; changed && len(faults) > 1; {
		changed = false
		for i := range faults {
			trial := append(append([]int(nil), faults[:i]...), faults[i+1:]...)
			if c.run(trial) < 0 {
				faults = trial
				changed = true
				break
			}
		}
	}
	return faults
}

// articulation reports whether silencing rank f breaks static reachability
// between some survivor pair in the union signal graph. All-pairs survivor
// reachability is equivalent to strong connectivity through any one survivor
// s0: a forward BFS from s0 must cover every survivor, and a reverse BFS
// (same silenced-relay rule on the transposed union) must too — then every
// pair connects as i → s0 → j. Two bitset BFS runs per probe replace the P
// per-seed runs of the naive formulation with identical verdicts, which is
// what keeps candidate scoring affordable at P ≥ 256. Static disconnection
// implies temporal stalling, so these ranks head the candidate list.
func (c *closureChecker) articulation(union, unionT *mat.Bool, f int) bool {
	silent := make([]uint64, c.words)
	silent[f/64] |= 1 << (uint(f) % 64)
	s0 := 0
	if f == 0 {
		s0 = 1
	}
	seed := make([]uint64, c.words)
	seed[s0/64] |= 1 << (uint(s0) % 64)
	union.ReachableFrom(seed, silent)
	if !coversAllExcept(seed, silent, c.s.P) {
		return true
	}
	for w := range seed {
		seed[w] = 0
	}
	seed[s0/64] |= 1 << (uint(s0) % 64)
	// On the transpose, suppressing relay f's row cuts the same paths its
	// forward sends carried: a reverse step j → m is the forward send m → j.
	unionT.ReachableFrom(seed, silent)
	return !coversAllExcept(seed, silent, c.s.P)
}

// coversAllExcept reports whether the bitset covers every rank outside excl.
func coversAllExcept(set, excl []uint64, n int) bool {
	full := n / 64
	for w := 0; w < full; w++ {
		if set[w]|excl[w] != ^uint64(0) {
			return false
		}
	}
	if r := uint(n % 64); r != 0 {
		mask := (uint64(1) << r) - 1
		if (set[full]|excl[full])&mask != mask {
			return false
		}
	}
	return true
}

// unionMatrix collapses all stages into one adjacency matrix.
func unionMatrix(s *sched.Schedule) *mat.Bool {
	u := mat.NewBool(s.P)
	for _, st := range s.Stages {
		u.Or(st)
	}
	return u
}

// binomial returns C(n, k), saturating at a large sentinel to avoid overflow.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > 1<<40 {
			return 1 << 40
		}
	}
	return c
}

// CriticalEdge names one send whose loss alone breaks the barrier, with the
// number of knowledge pairs that stall without it.
type CriticalEdge struct {
	Edge    Edge `json:"edge"`
	Stalled int  `json:"stalled"`
}

// CriticalEdges evaluates every signal of a verified barrier under
// single-message loss: drop exactly that send (all ranks healthy) and re-run
// Eq. 3. The returned edges — every send that is a single point of failure —
// are ranked most damaging first (stalled pair count, then stage/rank order),
// which is the severity order the findings report preserves.
func CriticalEdges(s *sched.Schedule) []CriticalEdge {
	s = s.Clone() // stages are toggled in place during the sweep
	var out []CriticalEdge
	cl := mat.NewClosure(s.P)
	for a, st := range s.Stages {
		st.Each(func(i, j int) {
			st.Set(i, j, false)
			if cl.Run(s.Stages, nil) < 0 {
				missing := s.P * s.P
				for r := 0; r < s.P; r++ {
					for _, w := range cl.Know(r) {
						missing -= bits.OnesCount64(w)
					}
				}
				out = append(out, CriticalEdge{Edge: Edge{Stage: a, From: i, To: j}, Stalled: missing})
			}
			st.Set(i, j, true)
		})
	}
	sort.SliceStable(out, func(x, y int) bool { return out[x].Stalled > out[y].Stalled })
	return out
}

// resilienceFindings renders a certification verdict as findings for the
// report: one Certified info finding, or a Warning carrying the minimal
// counterexample and its stalled-pair witnesses.
func resilienceFindings(s *sched.Schedule, res *Resilience) []Finding {
	if res.Certified {
		proof := "proved by exhaustive enumeration"
		if !res.Exhaustive {
			proof = "pruned candidate search found no counterexample (not a proof; raise MaxSubsets for one)"
		}
		return []Finding{{
			Check: "resilience-certified", Severity: Info, Stage: -1, K: res.K,
			Message: fmt.Sprintf("Certified{%d}: still a barrier with any %d rank(s) silent — %s (%d fault sets checked)",
				res.K, res.K, proof, res.SubsetsChecked),
		}}
	}
	fs := []Finding{{
		Check: "resilience-counterexample", Severity: Warning, Stage: -1, K: res.K,
		Ranks: res.Counterexample,
		Message: fmt.Sprintf("not %d-fault resilient: silencing rank set %v (minimal: every proper subset survives) stalls %d+ survivor pair(s)",
			res.K, res.Counterexample, len(res.Stalled)),
	}}
	for _, pr := range res.Stalled {
		pr := pr
		fs = append(fs, Finding{
			Check: "resilience-witness", Severity: Info, Stage: -1, K: res.K,
			Ranks: res.Counterexample, Pair: &pr,
			Message: fmt.Sprintf("with %v silent, rank %d never learns that rank %d entered the barrier",
				res.Counterexample, pr.To, pr.From),
		})
	}
	return fs
}

// criticalEdgeFindings renders the single-message-loss report: one summary
// plus one finding per critical edge, most damaging first.
func criticalEdgeFindings(s *sched.Schedule, edges []CriticalEdge) []Finding {
	total := s.SignalCount()
	if len(edges) == 0 {
		return []Finding{{
			Check: "critical-edges", Severity: Info, Stage: -1,
			Message: fmt.Sprintf("no critical sends: each of the %d signals can be lost alone without breaking Eq. 3", total),
		}}
	}
	all := make([]Edge, len(edges))
	for i, e := range edges {
		all[i] = e.Edge
	}
	fs := []Finding{{
		Check: "critical-edges", Severity: Info, Stage: -1, Edges: all,
		Message: fmt.Sprintf("%d of %d sends are single points of failure: losing any one of them alone breaks the barrier (ranked most damaging first)",
			len(edges), total),
	}}
	for _, e := range edges {
		fs = append(fs, Finding{
			Check: "critical-edge", Severity: Info, Stage: e.Edge.Stage,
			Ranks: []int{e.Edge.From, e.Edge.To},
			Edges: []Edge{e.Edge},
			Message: fmt.Sprintf("send %d→%d in stage %d is a single point of failure: its loss stalls %d knowledge pair(s)",
				e.Edge.From, e.Edge.To, e.Edge.Stage, e.Stalled),
		})
	}
	return fs
}
