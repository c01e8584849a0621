package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// A stepChunk is one Comm.Steps call of a rank's program and the Compute
// before it.
type stepChunk struct {
	compute float64
	steps   []Step
}

// randomSteps builds a deadlock-free P-rank step program: round k is one step
// of every rank under tag k, whose receives are the round's messages to the
// rank (in random order) and whose sends are its messages out, so every rank
// posts the whole round before waiting on it. Empty steps fall between
// rounds, and each rank's steps are cut into Steps calls at random, with a
// Compute before each, so that receives turn up already unexpected both when
// a program starts and when the scheduler posts its next step.
func randomSteps(rng *rand.Rand, p, rounds int) [][]stepChunk {
	steps := make([][]Step, p)
	for k := 0; k < rounds; k++ {
		recvs, sends := make([][]int, p), make([][]int, p)
		for n := rng.Intn(3 * p); n > 0; n-- {
			src, dst := rng.Intn(p), rng.Intn(p)
			if src != dst {
				sends[src] = append(sends[src], dst)
				recvs[dst] = append(recvs[dst], src)
			}
		}
		for r := 0; r < p; r++ {
			rng.Shuffle(len(recvs[r]), func(i, j int) { recvs[r][i], recvs[r][j] = recvs[r][j], recvs[r][i] })
			bytes := []int{0, 0, 1, 512, 4096}[rng.Intn(5)]
			steps[r] = append(steps[r], Step{Tag: k, Recvs: recvs[r], Sends: sends[r], Bytes: bytes})
			if rng.Intn(6) == 0 {
				steps[r] = append(steps[r], Step{})
			}
		}
	}
	prog := make([][]stepChunk, p)
	for r, list := range steps {
		for len(list) > 0 {
			n := 1 + rng.Intn(len(list))
			var compute float64
			if rng.Intn(2) == 0 {
				compute = float64(1+rng.Intn(200)) * usec
			}
			prog[r] = append(prog[r], stepChunk{compute: compute, steps: list[:n]})
			list = list[n:]
		}
	}
	return prog
}

// stepRun is everything a run of a step program observes.
type stepRun struct {
	events  []TraceEvent
	elapsed float64
	err     error
	done    [][]float64 // per rank, every step's completion time in program order, -1 if none
}

// runSteps runs prog on w under tag base. With ref set, each step is spelled
// the way the program is specified: an Irecv per receive, then an Issend per
// send, then one Wait, then Wtime; otherwise each chunk is one Comm.Steps.
func runSteps(w *World, events *[]TraceEvent, prog [][]stepChunk, base int, ref bool) stepRun {
	*events = (*events)[:0]
	out := stepRun{done: make([][]float64, len(prog))}
	out.elapsed, out.err = w.Run(func(c *Comm) {
		me := c.Rank()
		var done []float64 // -1 for a step that never completed
		for _, ch := range prog[me] {
			for range ch.steps {
				done = append(done, -1)
			}
		}
		out.done[me] = done
		for _, ch := range prog[me] {
			c.Compute(ch.compute)
			if !ref {
				c.Steps(base, ch.steps, done)
				done = done[len(ch.steps):]
				continue
			}
			for _, st := range ch.steps {
				var reqs []*Request
				for _, src := range st.Recvs {
					reqs = append(reqs, c.Irecv(src, base+st.Tag))
				}
				for _, dst := range st.Sends {
					reqs = append(reqs, c.Issend(dst, base+st.Tag, st.Bytes))
				}
				c.Wait(reqs...)
				done[0], done = c.Wtime(), done[1:]
			}
		}
	})
	out.events = slices.Clone(*events)
	return out
}

// sameRun fails the test unless two runs observed the same thing to the bit.
func sameRun(t *testing.T, what string, got, want stepRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: err %v, want %v", what, got.err, want.err)
	}
	if math.Float64bits(got.elapsed) != math.Float64bits(want.elapsed) {
		t.Fatalf("%s: elapsed %x, want %x", what, got.elapsed, want.elapsed)
	}
	for i := 0; i < min(len(got.events), len(want.events)); i++ {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: delivery %d is %+v, want %+v", what, i, got.events[i], want.events[i])
		}
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d deliveries, want %d", what, len(got.events), len(want.events))
	}
	for r := range want.done {
		if len(got.done[r]) != len(want.done[r]) {
			t.Fatalf("%s: rank %d completed %d steps, want %d", what, r, len(got.done[r]), len(want.done[r]))
		}
		for k, x := range want.done[r] {
			if math.Float64bits(got.done[r][k]) != math.Float64bits(x) {
				t.Fatalf("%s: rank %d step %d done at %x, want %x", what, r, k, got.done[r][k], x)
			}
		}
	}
}

// newStepWorld returns a World on fab that records its deliveries in events.
func newStepWorld(fab *fabric.Fabric, events *[]TraceEvent, opts ...Option) *World {
	return NewWorld(fab, append(opts, WithTracer(func(e TraceEvent) { *events = append(*events, e) }))...)
}

// TestStepsMatchConsecutiveCalls is Comm.Steps' specification as a property:
// random programs on a noisy fabric observe, as one Steps call per chunk,
// exactly what the same steps spelled as consecutive Irecv / Issend / Wait
// calls observe — the delivery stream, the elapsed time and every step's
// completion time, to the bit — so a single extra, missing or reordered noise
// draw or event would show.
func TestStepsMatchConsecutiveCalls(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)*100 + int64(p)))
			prog := randomSteps(rng, p, 3+rng.Intn(25))
			base := rng.Intn(1000)
			var runs [2]stepRun
			for i, ref := range []bool{false, true} {
				fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
				if err != nil {
					t.Fatal(err)
				}
				var events []TraceEvent
				runs[i] = runSteps(newStepWorld(fab, &events), &events, prog, base, ref)
				if runs[i].err != nil {
					t.Fatalf("P=%d seed %d (ref %v): %v", p, seed, ref, runs[i].err)
				}
			}
			sameRun(t, fmt.Sprintf("P=%d seed %d", p, seed), runs[0], runs[1])
		}
	}
}

// The edge cases, each on a noise-free fabric, so that after a failed run the
// same World must also match a fresh one: an empty step, steps whose receives
// are all already unexpected (as the program starts and as the scheduler
// posts them), a program cut by WithMaxEvents, and a deadlocked program.
func TestStepsEdgeCases(t *testing.T) {
	unexpected := [][]stepChunk{
		// Rank 0 collects messages that arrived while it computed, first as
		// its program's first step, then as a step the scheduler posts once
		// rank 4 has taken its signal.
		{{compute: 500 * usec, steps: []Step{
			{Tag: 0, Recvs: []int{1, 2, 3}},
			{Tag: 1, Sends: []int{4}},
			{Tag: 2, Recvs: []int{3, 1, 2}},
			{}, // an empty step in the middle of a program
			{Tag: 3, Sends: []int{1, 2, 3}, Bytes: 64},
		}}},
		{{steps: []Step{{Tag: 0, Sends: []int{0}}, {Tag: 2, Sends: []int{0}}, {Tag: 3, Recvs: []int{0}}}}},
		{{steps: []Step{{Tag: 0, Sends: []int{0}}, {Tag: 2, Sends: []int{0}}, {Tag: 3, Recvs: []int{0}}}}},
		{{steps: []Step{{Tag: 0, Sends: []int{0}}, {Tag: 2, Sends: []int{0}}, {Tag: 3, Recvs: []int{0}}}}},
		{{compute: 900 * usec, steps: []Step{{Tag: 1, Recvs: []int{0}}}}},
	}
	empty := [][]stepChunk{
		{{steps: []Step{{}}}, {steps: []Step{{Tag: 0, Sends: []int{1}}, {}, {}, {Tag: 1, Sends: []int{1}}}}},
		{{compute: 10 * usec, steps: []Step{{Tag: 0, Recvs: []int{0}}, {Tag: 1, Recvs: []int{0}}}}},
		{{steps: []Step{}}},
		{},
		{},
	}
	rng := rand.New(rand.NewSource(7))
	long := randomSteps(rng, 5, 30)
	deadlock := slices.Clone(long)
	deadlock[0] = append(slices.Clone(long[0]), stepChunk{steps: []Step{{Tag: 999, Recvs: []int{3}}}})

	cases := []struct {
		name string
		prog [][]stepChunk
		max  int // WithMaxEvents; 0 is unbounded
		fail bool
	}{
		{"unexpected", unexpected, 0, false},
		{"empty", empty, 0, false},
		{"max events", long, 40, true},
		{"deadlock", deadlock, 0, true},
	}
	quiet := func() *fabric.Fabric { return testFabric(t, 2, 4, 5) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]stepRun
			var worlds [2]*World
			var events [2][]TraceEvent
			for i, ref := range []bool{false, true} {
				var opts []Option
				if tc.max > 0 {
					opts = append(opts, WithMaxEvents(tc.max))
				}
				worlds[i] = newStepWorld(quiet(), &events[i], opts...)
				runs[i] = runSteps(worlds[i], &events[i], tc.prog, 0, ref)
			}
			if (runs[0].err != nil) != tc.fail {
				t.Fatalf("err = %v, want failure %v", runs[0].err, tc.fail)
			}
			sameRun(t, tc.name, runs[0], runs[1])
			if !tc.fail {
				return
			}
			// The World that failed runs the next program as a fresh one does.
			next := randomSteps(rng, 5, 8)
			var fresh []TraceEvent
			want := runSteps(newStepWorld(quiet(), &fresh), &fresh, next, 0, false)
			for i := range worlds {
				worlds[i].maxEvents = 0
				sameRun(t, tc.name+": the next run", runSteps(worlds[i], &events[i], next, 0, i == 1), want)
			}
		})
	}
}

// A program is checked before its first step is posted: a bad peer anywhere
// in it fails the rank without a message sent.
func TestStepsCheckEveryPeerFirst(t *testing.T) {
	for _, bad := range []Step{
		{Tag: 1, Sends: []int{9}},
		{Tag: 1, Recvs: []int{-3}},
		{Tag: 1, Sends: []int{0}},
		{Tag: 1, Sends: []int{1}, Bytes: -1},
	} {
		var events []TraceEvent
		w := newStepWorld(testFabric(t, 1, 2, 2), &events)
		_, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Steps(0, []Step{{Sends: []int{1}}, bad}, nil)
			}
		})
		if err == nil || len(events) != 0 {
			t.Fatalf("program with step %+v: err %v after %d deliveries", bad, err, len(events))
		}
	}
}
