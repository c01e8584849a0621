// Package run compiles barrier schedules into plans, executes them on the
// simulated MPI runtime and measures them.
//
// A Plan is the one executable form of a schedule: each rank's program of
// mpi.Steps, one per stage it takes part in, no-op stages eliminated, as the
// paper's generated code hard-codes them (§VI, §VII.C): post receives for the
// signals addressed to the rank, issue synchronized sends for those it owes,
// and wait for all before the next. The simulator runs that program as it
// stands (mpi.World.Run); netmpi walks the same RankOps slice, one
// Stager.Stage call per step, and so does the Go source codegen emits. The
// package also holds the timing harness and the delay-injection
// synchronization validator.
package run

import (
	"fmt"
	"slices"

	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
)

// Func is a barrier implementation: rank's program for one barrier among p
// ranks. Its tags must lie in [0, TagSpan), so that consecutive barriers on
// alternating tag windows never cross-match. The program is only read, so a
// Func may hand every caller the same slice.
type Func func(rank, p int) []mpi.Step

// Programs returns one barrier of b on every rank of a p-rank world, the
// programs World.Run takes.
func (b Func) Programs(p int) []mpi.Program {
	progs := make([]mpi.Program, p)
	for r := range progs {
		progs[r].Steps = b(r, p)
	}
	return progs
}

// TagSpan is the tag budget one barrier invocation may use.
const TagSpan = 1024

// Plan is a schedule compiled to per-rank step programs: the executable
// equivalent of the paper's generated hard-coded barriers. Empty stages are
// eliminated and per-stage membership is pre-resolved, so executing a plan
// performs no matrix scans.
type Plan struct {
	Name   string
	P      int
	Stages int
	// steps[rank] holds one mpi.Step per stage the rank takes part in: Tag
	// the stage index after elimination, peers ascending (nil on an unused
	// side), Bytes 0. Read-only once built, so a plan may run on several
	// Worlds and meshes at once.
	steps [][]mpi.Step
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
	pl := &Plan{Name: s.Name, P: s.P, steps: make([][]mpi.Step, s.P)}
	for _, st := range s.Stages {
		if st.IsZero() {
			continue
		}
		recvs := st.Cols()
		for r := 0; r < s.P; r++ {
			if sends := st.Row(r); len(recvs[r]) > 0 || len(sends) > 0 {
				pl.steps[r] = append(pl.steps[r], mpi.Step{Tag: pl.Stages, Recvs: recvs[r], Sends: sends})
			}
		}
		pl.Stages++
	}
	return pl
}

// Stager is the one per-stage executor contract of the live venue, met by
// *netmpi.Peer. Stage posts a receive under tag from every rank of recvs and
// a synchronized zero-byte signal under tag to every rank of sends, and
// returns once all of them have completed; a plan runs as one Stage per entry
// of its RankOps. Generated barriers take a Stager, and on the simulator a
// recording of their Stage calls is the plan's program.
type Stager interface {
	Rank() int
	Size() int
	Stage(tag int, recvs, sends []int) error
}

// Func returns the plan as a barrier implementation: a rank's program is its
// RankOps. It panics on a world of another size.
func (pl *Plan) Func() Func {
	return func(rank, p int) []mpi.Step {
		if p != pl.P {
			panic(fmt.Sprintf("run: %d-rank plan on %d-rank world", pl.P, p))
		}
		return pl.steps[rank]
	}
}

// Measurement summarises a timed barrier run.
type Measurement struct {
	Mean   float64 // mean virtual seconds per barrier
	Iters  int
	Warmup int
}

// windows are the tag bases of back-to-back barriers: only adjacent
// invocations can overlap in flight, so two alternating windows keep
// matching unambiguous.
var windows = []int{TagSpan, 0}

// Measure times a barrier: every rank executes warmup untimed iterations,
// then iters timed iterations; the reported mean is the globally elapsed
// virtual time between the end of the warmup and the end of the run, divided
// by iters — the way wall-clock barrier benchmarks measure on hardware. Each
// rank runs one program, the barrier's steps repeated warmup+iters times, so
// the work Measure allocates does not grow with the iteration count.
func Measure(w *mpi.World, b Func, warmup, iters int) (Measurement, error) {
	if iters <= 0 {
		return Measurement{}, fmt.Errorf("run: non-positive iteration count %d", iters)
	}
	if warmup < 0 {
		return Measurement{}, fmt.Errorf("run: negative warmup %d", warmup)
	}
	progs := b.Programs(w.Size())
	total := 0
	for r := range progs {
		pg := &progs[r]
		pg.Reps, pg.Bases, pg.Mark = warmup+iters, windows, warmup-1
		total += len(pg.Steps)
	}
	if warmup > 0 {
		// The last warm-up pass's completion times, for where timing starts.
		done := make([]float64, total)
		for r := range progs {
			progs[r].Done, done = done[:len(progs[r].Steps)], done[len(progs[r].Steps):]
		}
	}
	if _, err := w.Run(progs); err != nil {
		return Measurement{}, err
	}
	var t0, t1 float64
	for _, pg := range progs {
		if n := len(pg.Done); n > 0 {
			t0 = max(t0, pg.Done[n-1])
		}
		t1 = max(t1, pg.End)
	}
	return Measurement{Mean: (t1 - t0) / float64(iters), Iters: iters, Warmup: warmup}, nil
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
	p := w.Size()
	if delayRanks == nil {
		delayRanks = make([]int, p)
		for i := range delayRanks {
			delayRanks[i] = i
		}
	}
	if i := slices.IndexFunc(delayRanks, func(d int) bool { return d < 0 || d >= p }); i >= 0 {
		return fmt.Errorf("run: delay rank %d out of range", delayRanks[i])
	}
	progs := b.Programs(p)
	longest := 0
	for _, pg := range progs {
		longest = max(longest, len(pg.Steps))
	}
	// The delayed rank enters through one step of local work. One program
	// buffer serves every delayed rank, so a validation allocates the same
	// however many ranks it delays.
	delayed := make([]mpi.Step, 0, 1+longest)
	enter := make([]float64, 1+longest)
	for _, d := range delayRanks {
		own := progs[d]
		delayed = append(append(delayed[:0], mpi.Step{Compute: delay}), own.Steps...)
		progs[d] = mpi.Program{Steps: delayed, Done: enter}
		if _, err := w.Run(progs); err != nil {
			return fmt.Errorf("run: validation with rank %d delayed: %w", d, err)
		}
		for r := range progs {
			if x := progs[r].End; x < enter[0] {
				return fmt.Errorf("run: rank %d exited at %g before delayed rank %d entered at %g",
					r, x, d, enter[0])
			}
		}
		progs[d] = own
	}
	return nil
}

// PlanFromOps assembles a plan directly from per-rank step programs,
// bypassing schedule compilation. Unlike NewPlan it does not prove Eq. 3
// first — that is the point: it exists so the plan-level protocol checker
// (analyze.CheckPlan) can be exercised against deliberately broken plans,
// and so tests can perform plan surgery. Only structural sanity is enforced
// (stage indices in range, each step as mpi.CheckStep has it, so no step
// addresses its own rank, and no payload or local work: a barrier signal is
// zero bytes on every transport); protocol correctness is the checker's
// job.
func PlanFromOps(name string, p, stages int, ops [][]mpi.Step) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("run: plan over %d ranks", p)
	}
	if stages < 0 {
		return nil, fmt.Errorf("run: plan with %d stages", stages)
	}
	if len(ops) != p {
		return nil, fmt.Errorf("run: %d op lists for %d ranks", len(ops), p)
	}
	pl := &Plan{Name: name, P: p, Stages: stages, steps: make([][]mpi.Step, p)}
	for r, list := range ops {
		for _, op := range list {
			if op.Tag < 0 || op.Tag >= stages {
				return nil, fmt.Errorf("run: rank %d op in stage %d of %d-stage plan", r, op.Tag, stages)
			}
			if op.Bytes != 0 {
				return nil, fmt.Errorf("run: rank %d op in stage %d carries a %d-byte payload", r, op.Tag, op.Bytes)
			}
			if op.Compute != 0 || op.Noop {
				return nil, fmt.Errorf("run: rank %d op in stage %d carries local work", r, op.Tag)
			}
			if err := mpi.CheckStep(r, p, &op); err != nil {
				return nil, fmt.Errorf("run: rank %d op in stage %d: %w", r, op.Tag, err)
			}
			op.Recvs, op.Sends = append([]int(nil), op.Recvs...), append([]int(nil), op.Sends...)
			pl.steps[r] = append(pl.steps[r], op)
		}
	}
	return pl, nil
}

// Silenced returns a copy of the plan in which the listed ranks keep all
// their receives but perform none of their sends — the executable form of
// the resilience certifier's fault model (a rank whose messages are all
// lost). Running a silenced plan on a transport without failure detection
// reproduces exactly the hang the certifier's counterexample predicts.
// Other ranks' programs are unchanged: they still wait for the silenced
// ranks' messages.
func (pl *Plan) Silenced(ranks ...int) *Plan {
	silent := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= pl.P {
			panic(fmt.Sprintf("run: silencing rank %d of %d-rank plan", r, pl.P))
		}
		silent[r] = true
	}
	out := &Plan{Name: pl.Name, P: pl.P, Stages: pl.Stages, steps: make([][]mpi.Step, pl.P)}
	for r := range pl.steps {
		for _, op := range pl.steps[r] {
			// Peer lists are immutable once compiled, so the copy shares them.
			if silent[r] {
				op.Sends = nil
			}
			if len(op.Recvs) > 0 || len(op.Sends) > 0 {
				out.steps[r] = append(out.steps[r], op)
			}
		}
	}
	return out
}

// RankOps returns one rank's program — what the simulator runs for it (the
// plan's Func), and what a transport backend (for example the TCP mesh in
// internal/netmpi) executes one Stage per step. It is the
// plan's own, compiled once: callers must treat it and its peer lists as
// read-only.
func (pl *Plan) RankOps(r int) []mpi.Step {
	if r < 0 || r >= pl.P {
		panic(fmt.Sprintf("run: rank %d out of range for %d-rank plan", r, pl.P))
	}
	return pl.steps[r]
}
