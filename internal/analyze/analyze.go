// Package analyze is "barriervet": a static-analysis pass over barrier
// schedules. Where Schedule.IsBarrier reduces the paper's Eq. 3 knowledge
// recurrence to a boolean, this package turns the same recurrence into a
// diagnosis — a structured, severity-levelled findings report that explains
// *why* a pattern fails to synchronise (the exact stalled knowledge pairs
// and the signal chain that breaks), *what* it wastes (signals and whole
// stages whose removal provably preserves Eq. 3, priced by the predictor),
// and *where* it is structurally suspicious (silent or deaf ranks, no-op
// stages, fan hotspots, departure phases that contradict the schedule's
// claimed provenance).
//
// Vet is the gate built on the report: the tuning pipeline (internal/core),
// the online retuner, the real-network transport (netmpi.VetPlan) and the
// runbarrier/barriervet CLIs all compile a plan through it, and it refuses a
// schedule with Error-severity findings.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
)

// Severity levels a finding. Error means the schedule must not be compiled
// or executed; Warning marks likely mistakes that do not break Eq. 3 by
// themselves; Info marks optimisation opportunities and style notes.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String returns the lowercase severity name.
func (v Severity) String() string {
	switch v {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(v))
	}
}

// MarshalJSON encodes the severity as its name.
func (v Severity) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON decodes a severity name.
func (v *Severity) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "info":
		*v = Info
	case "warning":
		*v = Warning
	case "error":
		*v = Error
	default:
		return fmt.Errorf("analyze: unknown severity %q", s)
	}
	return nil
}

// Pair is one element of the knowledge matrix: To learning that From has
// entered the barrier.
type Pair struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Edge is one point-to-point signal of a schedule.
type Edge struct {
	Stage int `json:"stage"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// Finding is one machine-consumable analysis result.
type Finding struct {
	// Check names the analysis that produced the finding, e.g.
	// "sync-witness" or "redundant-signals".
	Check string `json:"check"`
	// Severity levels the finding.
	Severity Severity `json:"severity"`
	// Message is the human-readable diagnosis.
	Message string `json:"message"`
	// Stage is the implicated stage index, or -1 when not stage-specific.
	Stage int `json:"stage"`
	// Ranks lists implicated ranks, if any.
	Ranks []int `json:"ranks,omitempty"`
	// Pair is the stalled knowledge pair of a synchronisation witness.
	Pair *Pair `json:"pair,omitempty"`
	// Chain is the shortest signal chain relevant to the finding (for a
	// witness: the shortest static path whose stage order breaks).
	Chain []int `json:"chain,omitempty"`
	// Edges lists implicated signals (for redundancy: provably removable).
	Edges []Edge `json:"edges,omitempty"`
	// K is the fault budget of a resilience finding, 0 otherwise.
	K int `json:"k,omitempty"`
	// CostDelta is the predicted seconds saved by acting on the finding
	// (only set when a predictor was supplied).
	CostDelta float64 `json:"cost_delta,omitempty"`
}

func (f Finding) String() string {
	if f.Stage >= 0 {
		return fmt.Sprintf("[%s] %s (stage %d): %s", f.Severity, f.Check, f.Stage, f.Message)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Check, f.Message)
}

// Report is the full analysis of one schedule.
type Report struct {
	// Schedule is the analysed schedule's name.
	Schedule string `json:"schedule"`
	// P, Stages and Signals summarise the analysed pattern.
	P       int `json:"p"`
	Stages  int `json:"stages"`
	Signals int `json:"signals"`
	// Barrier is the Eq. 3 verdict, always equal to Schedule.IsBarrier().
	Barrier bool `json:"barrier"`
	// Findings lists all results, Errors first.
	Findings []Finding `json:"findings"`
}

// Count returns the number of findings at exactly the given severity.
func (r *Report) Count(v Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == v {
			n++
		}
	}
	return n
}

// Err returns a non-nil error when the report contains Error-severity
// findings — the gate condition for compiling, generating, or executing the
// schedule.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return fmt.Errorf("analyze: schedule %q: %s (%d error findings)",
				r.Schedule, f.Message, r.Count(Error))
		}
	}
	return nil
}

// ResilienceCounterexample returns the resilience-counterexample finding of
// the report, or nil when none is present — either because certification was
// not requested or because the schedule certified. It is the gate condition
// for callers demanding fault resilience (core.Tune's Options.CertifyK):
// the counterexample is deliberately not Error severity, since a non-resilient
// schedule is still a perfectly correct barrier when nothing fails.
func (r *Report) ResilienceCounterexample() *Finding {
	for i := range r.Findings {
		if r.Findings[i].Check == "resilience-counterexample" {
			return &r.Findings[i]
		}
	}
	return nil
}

// String renders the report for terminals.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "barriervet: %s — %d ranks, %d stages, %d signals\n",
		r.Schedule, r.P, r.Stages, r.Signals)
	verdict := "BARRIER (Eq. 3 satisfied)"
	if !r.Barrier {
		verdict = "NOT A BARRIER (Eq. 3 violated)"
	}
	fmt.Fprintf(&b, "verdict: %s\n", verdict)
	if len(r.Findings) == 0 {
		b.WriteString("findings: none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "findings: %d error, %d warning, %d info\n",
		r.Count(Error), r.Count(Warning), r.Count(Info))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Options configures an analysis. The zero value is the default
// configuration used by the pipeline gates.
type Options struct {
	// Predictor, when non-nil, prices redundancy findings as predicted
	// cost deltas against its profile. Its profile must span the same P.
	Predictor *predict.Predictor
	// FanThreshold flags per-stage fan-in/fan-out at or above it.
	// 0 selects the default of 8; negative disables the hotspot lints.
	FanThreshold int
	// MaxWitnesses caps the per-pair synchronisation witnesses reported
	// for a non-barrier. 0 selects the default of 5.
	MaxWitnesses int
	// SkipRedundancy disables the greedy signal/stage minimisation, which
	// re-verifies Eq. 3 once per candidate removal. It is also skipped
	// automatically (with an Info note) above redundancyMaxP ranks.
	SkipRedundancy bool
	// CertifyK, when positive, runs the k-fault resilience certifier on
	// verified barriers: either a Certified{k} finding or a minimal silent
	// rank set that breaks the barrier, with stalled-pair witnesses.
	CertifyK int
	// CriticalEdges, when set, reports every send of a verified barrier
	// whose loss alone breaks Eq. 3, ranked most damaging first.
	CriticalEdges bool
}

const (
	defaultFanThreshold = 8
	defaultMaxWitnesses = 5
	// redundancyMaxP bounds the rank count for redundancy analysis, which
	// re-verifies Eq. 3 once per candidate removal.
	redundancyMaxP = 128
)

// Analyze runs every barriervet check against the schedule and returns the
// findings report. It never panics on any schedule a decoder can produce;
// structurally unusable schedules (dimension mismatches) yield an
// Error-severity report instead of deeper analysis.
func Analyze(s *sched.Schedule, opts Options) *Report {
	rep := &Report{Schedule: s.Name, P: s.P, Stages: s.NumStages()}
	if s.Name == "" {
		rep.Schedule = "(unnamed)"
	}
	if s.P <= 0 {
		rep.Findings = append(rep.Findings, Finding{
			Check: "structure", Severity: Error, Stage: -1,
			Message: fmt.Sprintf("schedule over %d ranks", s.P),
		})
		return rep
	}
	for k, st := range s.Stages {
		if st == nil || st.N() != s.P {
			n := -1
			if st != nil {
				n = st.N()
			}
			rep.Findings = append(rep.Findings, Finding{
				Check: "structure", Severity: Error, Stage: k,
				Message: fmt.Sprintf("stage %d has dimension %d, want %d", k, n, s.P),
			})
			return rep
		}
	}
	rep.Signals = s.SignalCount()

	var fs []Finding
	fs = append(fs, structuralLints(s, opts)...)

	// Eq. 3 verdict through the receiver-wise closure. The from-scratch
	// per-stage knowledge matrices are materialised only for non-barriers,
	// where the witness search reads them — for a verified P=1024 schedule
	// they alone would dwarf the cost of the whole analysis.
	rep.Barrier = s.IsBarrier()
	if !rep.Barrier {
		fs = append(fs, witnesses(s, s.Knowledge(), maxWitnesses(opts))...)
	} else {
		if !opts.SkipRedundancy {
			fs = append(fs, redundancy(s, opts)...)
		}
		if opts.CertifyK > 0 {
			res := CertifyK(s, opts.CertifyK, ResilienceOptions{})
			fs = append(fs, resilienceFindings(s, res)...)
		}
		if opts.CriticalEdges {
			fs = append(fs, criticalEdgeFindings(s, CriticalEdges(s))...)
		}
	}

	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Severity > fs[j].Severity })
	rep.Findings = fs
	return rep
}

func maxWitnesses(opts Options) int {
	if opts.MaxWitnesses > 0 {
		return opts.MaxWitnesses
	}
	return defaultMaxWitnesses
}

// structuralLints runs the checks that need no knowledge recurrence: empty
// schedules and stages, silent/deaf ranks, fan hotspots, and the
// departure-shape provenance check.
func structuralLints(s *sched.Schedule, opts Options) []Finding {
	var fs []Finding
	if s.P > 1 && s.NumStages() == 0 {
		fs = append(fs, Finding{
			Check: "empty-schedule", Severity: Error, Stage: -1,
			Message: fmt.Sprintf("no stages over %d ranks: no signal can ever propagate", s.P),
		})
		return fs
	}

	sends := make([]int, s.P) // total signals sent per rank
	recvs := make([]int, s.P) // total signals received per rank
	threshold := opts.FanThreshold
	if threshold == 0 {
		threshold = defaultFanThreshold
	}
	for k, st := range s.Stages {
		if st.IsZero() {
			fs = append(fs, Finding{
				Check: "empty-stage", Severity: Warning, Stage: k,
				Message: fmt.Sprintf("stage %d carries no signals (no-op step; DropEmptyStages removes it)", k),
			})
			continue
		}
		cols := st.Cols()
		for i := 0; i < s.P; i++ {
			out := len(st.Row(i))
			in := len(cols[i])
			sends[i] += out
			recvs[i] += in
			if st.At(i, i) {
				fs = append(fs, Finding{
					Check: "self-signal", Severity: Warning, Stage: k, Ranks: []int{i},
					Message: fmt.Sprintf("rank %d signals itself in stage %d: a no-op for Eq. 3 that Validate rejects", i, k),
				})
			}
			if threshold > 0 && out >= threshold {
				fs = append(fs, Finding{
					Check: "fan-out-hotspot", Severity: Info, Stage: k, Ranks: []int{i},
					Message: fmt.Sprintf("rank %d sends %d signals in stage %d (threshold %d): its Eq. 1 batch serialises the stage", i, out, k, threshold),
				})
			}
			if threshold > 0 && in >= threshold {
				fs = append(fs, Finding{
					Check: "fan-in-hotspot", Severity: Info, Stage: k, Ranks: []int{i},
					Message: fmt.Sprintf("rank %d receives %d signals in stage %d (threshold %d): arrival aggregation bottleneck", i, in, k, threshold),
				})
			}
		}
	}
	if s.P > 1 && s.NumStages() > 0 {
		for i := 0; i < s.P; i++ {
			if sends[i] == 0 {
				fs = append(fs, Finding{
					Check: "silent-rank", Severity: Warning, Stage: -1, Ranks: []int{i},
					Message: fmt.Sprintf("rank %d never signals: its arrival cannot become known to any other rank", i),
				})
			}
			if recvs[i] == 0 {
				fs = append(fs, Finding{
					Check: "deaf-rank", Severity: Warning, Stage: -1, Ranks: []int{i},
					Message: fmt.Sprintf("rank %d is never signalled: it can never learn of any other arrival", i),
				})
			}
		}
	}
	if f := departureShape(s); f != nil {
		fs = append(fs, *f)
	}
	return fs
}

// departureShape checks schedules whose name claims full arrival+departure
// provenance (linear, tree, ring, k-ary tree): their second half must be the
// transposed reversal of their first half (§V.B). Composed hybrids and
// dissemination patterns make no such claim and are exempt.
func departureShape(s *sched.Schedule) *Finding {
	if !claimsTransposedDeparture(s.Name) || s.P == 1 {
		return nil
	}
	n := s.NumStages()
	if n%2 != 0 {
		return &Finding{
			Check: "departure-shape", Severity: Warning, Stage: -1,
			Message: fmt.Sprintf("name %q claims arrival+departure provenance but the stage count %d is odd", s.Name, n),
		}
	}
	for k := 0; k < n/2; k++ {
		if !s.Stages[n-1-k].Equal(s.Stages[k].T()) {
			return &Finding{
				Check: "departure-shape", Severity: Warning, Stage: n - 1 - k,
				Message: fmt.Sprintf("name %q claims arrival+departure provenance but stage %d is not the transpose of stage %d", s.Name, n-1-k, k),
			}
		}
	}
	return nil
}

// claimsTransposedDeparture reports whether a schedule name announces one of
// the algorithms built as arrival followed by transposed-reversal departure.
func claimsTransposedDeparture(name string) bool {
	for _, prefix := range []string{"linear(", "tree(", "ring("} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return strings.Contains(name, "-ary-tree(")
}
