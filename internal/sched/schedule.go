// Package sched implements the paper's algorithmic model (§V): a barrier
// algorithm represented as a layered dependency graph, encoded as a sequence
// of boolean incidence matrices S0..Sk. Entry Ss[i][j] means rank i signals
// rank j in step s, and all signals of a step must be received before the
// next step begins.
//
// The package provides the representation itself, the Eq. 3 verification that
// a sequence globally synchronises, the three component algorithms of the
// paper (linear, dissemination, binary tree) plus extension components, and
// the structural transformations the adaptive composer needs: transposed
// reversal for departure phases, lifting local patterns into the global rank
// space, and early merging of sibling patterns.
package sched

import (
	"encoding/json"
	"fmt"
	"strings"

	"topobarrier/internal/mat"
)

// Schedule is a barrier signal pattern over P ranks.
type Schedule struct {
	// Name records provenance, e.g. "dissemination(8)".
	Name string
	// P is the number of participating ranks.
	P int
	// Stages holds one P×P incidence matrix per step.
	Stages []*mat.Bool
}

// New returns an empty schedule over p ranks.
func New(name string, p int) *Schedule {
	if p <= 0 {
		panic(fmt.Sprintf("sched: schedule over %d ranks", p))
	}
	return &Schedule{Name: name, P: p}
}

// AddStage appends a stage matrix; its dimension must equal P.
func (s *Schedule) AddStage(m *mat.Bool) {
	if m.N() != s.P {
		panic(fmt.Sprintf("sched: stage of size %d added to %d-rank schedule", m.N(), s.P))
	}
	s.Stages = append(s.Stages, m)
}

// NumStages returns the number of steps.
func (s *Schedule) NumStages() int { return len(s.Stages) }

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := New(s.Name, s.P)
	for _, st := range s.Stages {
		c.Stages = append(c.Stages, st.Clone())
	}
	return c
}

// Validate reports an error if any stage has the wrong dimension or contains
// a self-signal, or if the schedule is degenerate: more than one rank but no
// stages at all, so no signal could ever propagate.
func (s *Schedule) Validate() error {
	if s.P <= 0 {
		return fmt.Errorf("sched: %q has %d ranks", s.Name, s.P)
	}
	if s.P > 1 && len(s.Stages) == 0 {
		return fmt.Errorf("sched: %q has no stages but %d ranks — nothing can synchronise", s.Name, s.P)
	}
	for k, st := range s.Stages {
		if st.N() != s.P {
			return fmt.Errorf("sched: %q stage %d has size %d, want %d", s.Name, k, st.N(), s.P)
		}
		for i := 0; i < s.P; i++ {
			if st.At(i, i) {
				return fmt.Errorf("sched: %q stage %d has self-signal at rank %d", s.Name, k, i)
			}
		}
	}
	return nil
}

// Knowledge returns the arrival-knowledge matrix after every stage, following
// the paper's Eq. 3: K(-1) = I, K(a) = K(a-1) + K(a-1)·S(a). Element (i, j)
// of K(a) means rank j knows, after stage a completes, that rank i has
// entered the barrier. This from-scratch row-wise recurrence is the reference
// the one fast Eq. 3 engine, mat.Closure — run from scratch behind IsBarrier,
// the k-fault certifier and the critical-edge sweep, resumed by the search —
// is tested against, and what the analyzer's witness search reads.
func (s *Schedule) Knowledge() []*mat.Bool {
	k := mat.Identity(s.P)
	out := make([]*mat.Bool, 0, len(s.Stages))
	for _, st := range s.Stages {
		k = mat.Propagate(k, st)
		out = append(out, k)
	}
	return out
}

// IsBarrier reports whether the signal pattern globally synchronises: every
// element of the final knowledge matrix must be non-zero (Eq. 3). The verdict
// comes from the receiver-wise mat.Closure, which mat's property tests and
// analyze's fuzz target pin bit-identical to the last matrix of Knowledge
// being all-set.
func (s *Schedule) IsBarrier() bool {
	return mat.NewClosure(s.P).Run(s.Stages, nil) >= 0
}

// SignalCount returns the total number of point-to-point signals.
func (s *Schedule) SignalCount() int {
	n := 0
	for _, st := range s.Stages {
		n += st.Count()
	}
	return n
}

// ReverseTransposed returns the departure phase implied by an arrival phase:
// the same matrices transposed, applied in reverse order — the general
// principle the paper derives from the linear and tree algorithms (§V.B).
func (s *Schedule) ReverseTransposed() *Schedule {
	r := New(s.Name+"ᵀ", s.P)
	for k := len(s.Stages) - 1; k >= 0; k-- {
		r.Stages = append(r.Stages, s.Stages[k].T())
	}
	return r
}

// Concat appends all stages of o (same P) and returns s.
func (s *Schedule) Concat(o *Schedule) *Schedule {
	if o.P != s.P {
		panic(fmt.Sprintf("sched: concat %d-rank onto %d-rank schedule", o.P, s.P))
	}
	for _, st := range o.Stages {
		s.Stages = append(s.Stages, st.Clone())
	}
	return s
}

// Lift maps a schedule over len(ranks) local members into the global rank
// space of a p-rank job: local member a becomes global rank ranks[a].
func (s *Schedule) Lift(p int, ranks []int) *Schedule {
	if len(ranks) != s.P {
		panic(fmt.Sprintf("sched: lifting %d-rank schedule with %d ranks", s.P, len(ranks)))
	}
	for _, r := range ranks {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("sched: lift target rank %d outside %d-rank job", r, p))
		}
	}
	out := New(s.Name, p)
	for _, st := range s.Stages {
		g := mat.NewBool(p)
		for i := 0; i < s.P; i++ {
			for _, j := range st.Row(i) {
				g.Set(ranks[i], ranks[j], true)
			}
		}
		out.Stages = append(out.Stages, g)
	}
	return out
}

// MergeEarly overlays sibling schedules over the same global rank space into
// one sequence, aligning every part at stage 0 — the paper's resolution of
// differing local phase lengths ("merging shorter sequences with longer ones
// as early as possible", §VII.B). The result has max-stage-count stages, and
// stage t is the union of the parts' stage-t matrices.
func MergeEarly(name string, p int, parts ...*Schedule) *Schedule {
	out := New(name, p)
	maxStages := 0
	for _, pt := range parts {
		if pt.P != p {
			panic(fmt.Sprintf("sched: merging %d-rank part into %d-rank space", pt.P, p))
		}
		if pt.NumStages() > maxStages {
			maxStages = pt.NumStages()
		}
	}
	for t := 0; t < maxStages; t++ {
		m := mat.NewBool(p)
		for _, pt := range parts {
			if t < pt.NumStages() {
				m.Or(pt.Stages[t])
			}
		}
		out.Stages = append(out.Stages, m)
	}
	return out
}

// DropEmptyStages removes all-zero stages (the code generator's elimination
// of no-op transmission steps, §VII.C) and returns a new schedule.
func (s *Schedule) DropEmptyStages() *Schedule {
	out := New(s.Name, s.P)
	for _, st := range s.Stages {
		if !st.IsZero() {
			out.Stages = append(out.Stages, st.Clone())
		}
	}
	return out
}

// Silence returns a copy of the schedule with every send of the given ranks
// removed (their stage-matrix rows zeroed). This is the k-fault model of the
// resilience certifier made executable: a silenced rank still receives — and
// still appears in other ranks' send lists — but contributes nothing to
// knowledge propagation. Ranks out of range panic.
func (s *Schedule) Silence(ranks []int) *Schedule {
	out := s.Clone()
	for _, r := range ranks {
		if r < 0 || r >= s.P {
			panic(fmt.Sprintf("sched: silencing rank %d of %d-rank schedule", r, s.P))
		}
		for _, st := range out.Stages {
			for _, j := range st.Row(r) {
				st.Set(r, j, false)
			}
		}
	}
	return out
}

// Equal reports whether two schedules have identical rank count and stage
// matrices (names are ignored).
func (s *Schedule) Equal(o *Schedule) bool {
	if s.P != o.P || len(s.Stages) != len(o.Stages) {
		return false
	}
	for k := range s.Stages {
		if !s.Stages[k].Equal(o.Stages[k]) {
			return false
		}
	}
	return true
}

// String renders the stage matrices in the style of the paper's Figures 2-4.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ranks, %d stages, %d signals\n", s.Name, s.P, len(s.Stages), s.SignalCount())
	for k, st := range s.Stages {
		fmt.Fprintf(&b, "S%d =\n%s\n", k, st)
	}
	return b.String()
}

// scheduleJSON is the persistence format: per stage, the list of (from, to)
// signal edges.
type scheduleJSON struct {
	Name   string     `json:"name"`
	P      int        `json:"p"`
	Stages [][][2]int `json:"stages"`
}

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	enc := scheduleJSON{Name: s.Name, P: s.P, Stages: make([][][2]int, len(s.Stages))}
	for k, st := range s.Stages {
		edges := [][2]int{}
		for i := 0; i < s.P; i++ {
			for _, j := range st.Row(i) {
				edges = append(edges, [2]int{i, j})
			}
		}
		enc.Stages[k] = edges
	}
	return json.Marshal(enc)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var dec scheduleJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	if dec.P <= 0 {
		return fmt.Errorf("sched: decoded schedule over %d ranks", dec.P)
	}
	out := New(dec.Name, dec.P)
	for k, edges := range dec.Stages {
		m := mat.NewBool(dec.P)
		for _, e := range edges {
			if e[0] < 0 || e[0] >= dec.P || e[1] < 0 || e[1] >= dec.P {
				return fmt.Errorf("sched: stage %d edge %v out of range", k, e)
			}
			m.Set(e[0], e[1], true)
		}
		out.Stages = append(out.Stages, m)
	}
	*s = *out
	return s.Validate()
}

// IsGroupBarrier reports whether the pattern synchronises the given subset
// of ranks among themselves: every member's arrival must become known to
// every other member. Signals involving non-members are permitted (they are
// simply not required). This is the verification condition for disjoint and
// nested sub-group barriers.
func (s *Schedule) IsGroupBarrier(members []int) bool {
	if len(members) == 0 {
		return false
	}
	for _, m := range members {
		if m < 0 || m >= s.P {
			panic(fmt.Sprintf("sched: group member %d out of range", m))
		}
	}
	k := mat.Identity(s.P)
	for _, st := range s.Stages {
		k = mat.Propagate(k, st)
	}
	for _, i := range members {
		for _, j := range members {
			if !k.At(i, j) {
				return false
			}
		}
	}
	return true
}
