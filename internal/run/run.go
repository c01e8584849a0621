// Package run compiles barrier schedules into plans, executes them on the
// simulated MPI runtime and measures them.
//
// A Plan is the one executable form of a schedule: the stage matrices
// resolved to per-rank lists with no-op stages eliminated, as the paper's
// generated code hard-codes them (§VII.C). Every executor runs it the same
// way, through one call per stage (Stager.Stage): post receives for the
// signals addressed to the rank, issue synchronized sends for the signals it
// owes, and wait for all before entering the next stage (§VI). netmpi drives
// the live mesh's *netmpi.Peer that way, and the Go source codegen emits from
// RankOps calls whichever Stager it is handed; Plan.Execute hands the
// simulator's *mpi.Comm a rank's whole stage list as one program
// (Comm.Steps), whose steps are exactly those Stage calls. The package also
// holds the timing harness and the delay-injection synchronization validator.
package run

import (
	"fmt"
	"slices"

	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// Func is a barrier implementation executable by one rank. Implementations
// must use tags in [tagBase, tagBase+TagSpan) so that consecutive barriers
// never cross-match.
type Func func(c *mpi.Comm, tagBase int)

// TagSpan is the tag budget one barrier invocation may use.
const TagSpan = 1024

// Plan is a schedule compiled to per-rank stage lists: the executable
// equivalent of the paper's generated hard-coded barriers. Empty stages are
// eliminated and per-stage membership is pre-resolved, so executing a plan
// performs no matrix scans.
type Plan struct {
	Name   string
	P      int
	Stages int
	// ops[rank] lists only the stages in which the rank participates.
	ops [][]StageOps
	// steps[rank] is ops[rank] as the simulator's program, built with ops
	// and read-only after, so one plan may run on several Worlds at once.
	steps [][]mpi.Step
}

// StageOps is one rank's work in one stage of a compiled plan.
type StageOps struct {
	// Stage is the stage index (tag offset) after empty-stage elimination.
	Stage int
	// Recvs and Sends list the peer ranks in increasing order; a rank that
	// only sends (or only receives) in the stage has a nil list on the other
	// side.
	Recvs, Sends []int
}

// NewPlan compiles a schedule. It returns an error if the schedule does not
// globally synchronise — compiling a non-barrier is always a bug.
func NewPlan(s *sched.Schedule) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsBarrier() {
		return nil, fmt.Errorf("run: schedule %q does not globally synchronise", s.Name)
	}
	return compile(s), nil
}

// compile resolves the non-empty stage matrices to per-rank lists. Each
// stage's receive lists come from one mat.Bool.Cols pass over its set bits,
// so compilation costs O(P·words + signals) per stage, not P² bit probes.
func compile(s *sched.Schedule) *Plan {
	pl := &Plan{Name: s.Name, P: s.P, ops: make([][]StageOps, s.P)}
	for _, st := range s.Stages {
		if st.IsZero() {
			continue
		}
		recvs := st.Cols()
		for r := 0; r < s.P; r++ {
			if sends := st.Row(r); len(recvs[r]) > 0 || len(sends) > 0 {
				pl.ops[r] = append(pl.ops[r], StageOps{Stage: pl.Stages, Recvs: recvs[r], Sends: sends})
			}
		}
		pl.Stages++
	}
	return pl.withSteps()
}

// withSteps builds the plan's programs from its op lists, on one backing
// array, and returns the plan.
func (pl *Plan) withSteps() *Plan {
	n := 0
	for _, ops := range pl.ops {
		n += len(ops)
	}
	all := make([]mpi.Step, 0, n)
	pl.steps = make([][]mpi.Step, pl.P)
	for r, ops := range pl.ops {
		for _, op := range ops {
			all = append(all, mpi.Step{Tag: op.Stage, Recvs: op.Recvs, Sends: op.Sends})
		}
		pl.steps[r], all = all[:len(ops):len(ops)], all[len(ops):]
	}
	return pl
}

// Stager is the one executor contract, met by the simulator's *mpi.Comm and
// the live mesh's *netmpi.Peer alike. Stage posts a receive under tag from
// every rank of recvs and a synchronized zero-byte signal under tag to every
// rank of sends, and returns once all of them have completed; a plan runs as
// one Stage per entry of its RankOps. Generated barriers take a Stager, so
// the same source runs on every venue.
type Stager interface {
	Rank() int
	Size() int
	Stage(tag int, recvs, sends []int) error
}

var _ Stager = (*mpi.Comm)(nil)

// Execute runs the plan for the calling rank: its stages, one Stage each, as
// one program the simulator's scheduler advances. All ranks of the world
// must call it with the same tagBase; a plan compiled for another world size
// panics.
func (pl *Plan) Execute(c *mpi.Comm, tagBase int) {
	if c.Size() != pl.P {
		panic(fmt.Sprintf("run: %d-rank plan on %d-rank world", pl.P, c.Size()))
	}
	c.Steps(tagBase, pl.steps[c.Rank()], nil)
}

// Func adapts the plan to the Func interface.
func (pl *Plan) Func() Func { return pl.Execute }

// Measurement summarises a timed barrier run.
type Measurement struct {
	Mean   float64 // mean virtual seconds per barrier
	Iters  int
	Warmup int
}

// Measure times a barrier: every rank executes warmup untimed iterations,
// then iters timed iterations; the reported mean is the globally elapsed
// virtual time between the end of the warmup and the end of the run, divided
// by iters — the way wall-clock barrier benchmarks measure on hardware.
func Measure(w *mpi.World, b Func, warmup, iters int) (Measurement, error) {
	if iters <= 0 {
		return Measurement{}, fmt.Errorf("run: non-positive iteration count %d", iters)
	}
	if warmup < 0 {
		return Measurement{}, fmt.Errorf("run: negative warmup %d", warmup)
	}
	p := w.Size()
	t0 := make([]float64, p)
	t1 := make([]float64, p)
	_, err := w.Run(func(c *mpi.Comm) {
		// Only adjacent barrier invocations can overlap in flight, so two
		// alternating tag windows keep matching unambiguous.
		n := 0
		next := func() int { n++; return (n % 2) * TagSpan }
		for i := 0; i < warmup; i++ {
			b(c, next())
		}
		t0[c.Rank()] = c.Wtime()
		for i := 0; i < iters; i++ {
			b(c, next())
		}
		t1[c.Rank()] = c.Wtime()
	})
	if err != nil {
		return Measurement{}, err
	}
	mean := (stats.Max(t1) - stats.Max(t0)) / float64(iters)
	return Measurement{Mean: mean, Iters: iters, Warmup: warmup}, nil
}

// Validate performs the paper's synchronization check (§VI): the barrier is
// run once per delayed rank d, with rank d entering `delay` virtual seconds
// late; every rank's exit time must then be at least the delayed rank's
// entry time, or the pattern failed to synchronise. delayRanks selects which
// ranks to delay (nil means all P, the paper's protocol).
func Validate(w *mpi.World, b Func, delay float64, delayRanks []int) error {
	if delay <= 0 {
		return fmt.Errorf("run: non-positive delay %g", delay)
	}
	if delayRanks == nil {
		delayRanks = make([]int, w.Size())
		for i := range delayRanks {
			delayRanks[i] = i
		}
	}
	// One body and one pair of time vectors serve every delayed rank, so a
	// validation allocates the same however many ranks it delays.
	enter := make([]float64, w.Size())
	exit := make([]float64, w.Size())
	var d int
	body := func(c *mpi.Comm) {
		if c.Rank() == d {
			c.Compute(delay)
		}
		enter[c.Rank()] = c.Wtime()
		b(c, 0)
		exit[c.Rank()] = c.Wtime()
	}
	for _, d = range delayRanks {
		if d < 0 || d >= w.Size() {
			return fmt.Errorf("run: delay rank %d out of range", d)
		}
		if _, err := w.Run(body); err != nil {
			return fmt.Errorf("run: validation with rank %d delayed: %w", d, err)
		}
		for r, x := range exit {
			if x < enter[d] {
				return fmt.Errorf("run: rank %d exited at %g before delayed rank %d entered at %g",
					r, x, d, enter[d])
			}
		}
	}
	return nil
}

// PlanFromOps assembles a plan directly from per-rank stage lists, bypassing
// schedule compilation. Unlike NewPlan it does not prove Eq. 3 first — that
// is the point: it exists so the plan-level protocol checker
// (analyze.CheckPlan) can be exercised against deliberately broken plans,
// and so tests can perform plan surgery. Only structural sanity is enforced
// (rank and stage indices in range); protocol correctness is the checker's
// job.
func PlanFromOps(name string, p, stages int, ops [][]StageOps) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("run: plan over %d ranks", p)
	}
	if stages < 0 {
		return nil, fmt.Errorf("run: plan with %d stages", stages)
	}
	if len(ops) != p {
		return nil, fmt.Errorf("run: %d op lists for %d ranks", len(ops), p)
	}
	pl := &Plan{Name: name, P: p, Stages: stages, ops: make([][]StageOps, p)}
	for r, list := range ops {
		for _, op := range list {
			if op.Stage < 0 || op.Stage >= stages {
				return nil, fmt.Errorf("run: rank %d op in stage %d of %d-stage plan", r, op.Stage, stages)
			}
			for _, peer := range slices.Concat(op.Recvs, op.Sends) {
				if peer < 0 || peer >= p {
					return nil, fmt.Errorf("run: rank %d references peer %d of %d-rank plan", r, peer, p)
				}
			}
			pl.ops[r] = append(pl.ops[r], StageOps{
				Stage: op.Stage,
				Recvs: append([]int(nil), op.Recvs...),
				Sends: append([]int(nil), op.Sends...),
			})
		}
	}
	return pl.withSteps(), nil
}

// Silenced returns a copy of the plan in which the listed ranks keep all
// their receives but perform none of their sends — the executable form of
// the resilience certifier's fault model (a rank whose messages are all
// lost). Running a silenced plan on a transport without failure detection
// reproduces exactly the hang the certifier's counterexample predicts.
// Other ranks' op lists are unchanged: they still wait for the silenced
// ranks' messages.
func (pl *Plan) Silenced(ranks ...int) *Plan {
	silent := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= pl.P {
			panic(fmt.Sprintf("run: silencing rank %d of %d-rank plan", r, pl.P))
		}
		silent[r] = true
	}
	out := &Plan{Name: pl.Name, P: pl.P, Stages: pl.Stages, ops: make([][]StageOps, pl.P)}
	for r := range pl.ops {
		for _, op := range pl.ops[r] {
			// Peer lists are immutable once compiled, so the copy shares them.
			if silent[r] {
				op.Sends = nil
			}
			if len(op.Recvs) > 0 || len(op.Sends) > 0 {
				out.ops[r] = append(out.ops[r], op)
			}
		}
	}
	return out.withSteps()
}

// RankOps returns the per-stage operation list of one rank — the data a
// transport backend (for example the TCP mesh in internal/netmpi) needs to
// execute the plan outside the simulator. The list is the plan's own,
// compiled once: callers must treat it and its peer lists as read-only.
func (pl *Plan) RankOps(r int) []StageOps {
	if r < 0 || r >= pl.P {
		panic(fmt.Sprintf("run: rank %d out of range for %d-rank plan", r, pl.P))
	}
	return pl.ops[r]
}
