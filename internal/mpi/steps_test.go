package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// A stepChunk is a run of a rank's steps and the local work before it.
type stepChunk struct {
	compute float64
	steps   []Step
}

// randomSteps builds a deadlock-free P-rank step program: round k is one step
// of every rank under tag k, whose receives are the round's messages to the
// rank (in random order) and whose sends are its messages out, so every rank
// posts the whole round before waiting on it. Empty steps fall between
// rounds, and each rank's steps are cut into chunks at random, with local
// work before each, so that receives turn up already unexpected both when a
// program starts and when the scheduler posts a step.
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
	done    [][]float64 // per rank, every chunk step's completion time in program order, -1 if none
}

// runChunks runs prog on w under tag base, each rank's chunks as one program:
// a step of local work before each chunk's steps.
func runChunks(w *World, events *[]TraceEvent, prog [][]stepChunk, base int) stepRun {
	*events = (*events)[:0]
	progs := make([]Program, len(prog))
	for r, chunks := range prog {
		var steps []Step
		for _, ch := range chunks {
			steps = append(append(steps, Step{Compute: ch.compute}), ch.steps...)
		}
		done := make([]float64, len(steps))
		for k := range done {
			done[k] = -1
		}
		progs[r] = Program{Steps: steps, Bases: []int{base}, Done: done}
	}
	out := stepRun{done: make([][]float64, len(prog))}
	out.elapsed, out.err = w.Run(progs)
	for r, chunks := range prog {
		k := 0
		for _, ch := range chunks {
			k++ // the chunk's local work
			for range ch.steps {
				out.done[r] = append(out.done[r], progs[r].Done[k])
				k++
			}
		}
	}
	out.events = slices.Clone(*events)
	return out
}

// digest is the SHA-256 of the runs' observations, in order.
func digest(runs ...stepRun) string {
	h := sha256.New()
	for _, a := range runs {
		foldRun(h, a.events, a.elapsed, a.done)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newStepWorld returns a World on fab that records its deliveries in events.
func newStepWorld(fab *fabric.Fabric, events *[]TraceEvent, opts ...Option) *World {
	return NewWorld(fab, append(opts, WithTracer(func(e TraceEvent) { *events = append(*events, e) }))...)
}

// The frozen reference. The digests below are what the engine's former
// consecutive-call path (one Irecv per receive, one Issend per send, one Wait
// per step, Compute before each chunk) observed for the same programs, run on
// commit 3e21247 before that path was deleted: every delivery with its four
// times, the elapsed time and every step's completion time, as hex floats.
// A program must observe exactly the same, so a single extra, missing or
// reordered noise draw or event shows.
var (
	stepsGolden = map[int]string{
		2:  "d2eb6b2c89e1e741532389864a43ad71d46de0d6e854aeaf3a29b904d3a60e61",
		3:  "62cccad7166b177903f434d44ee0750f6532ddcc1eec95e27649b112c728b100",
		4:  "f85382411a6d08b423c24c3e25471e7fae738b1dfc8a65424a5cd6952c54b825",
		5:  "5f147cec793aa5e1524a4c606cdcb86a7bb7420a3a2a39053b2ecf7df395b1c9",
		6:  "f785b0bef0678e55716fda5b09f7e818041352407c453523376f2e2fc4e677c3",
		7:  "16c4b80ec1139f0f5ef87628269efa0fd22931305812fbf37c3a3b0761b32f1d",
		8:  "1649af741aefac132969f000886015b1190387a971dd6bd0cd0f816accb4d1a5",
		9:  "c798ed2ae81b41b9bcf955f2fdf1d37d1955ee0f5dffd96528a5baf73aee890b",
		16: "2896bd22bd0ecf5edc9f7ec69de7ad209796e9ee868f649a2256b4ea1dce3a41",
	}
	stageGolden = "808e0c68ecaebe5659e86dd6d483004af4d06deaee1c36e26c12246a1b25fd3c"
	edgeGolden  = map[string]string{
		"unexpected": "826c0b037ba053ea91abf5516187e74dff58f298d028c82b4f4e9528aff95ef2",
		"empty":      "c50a81a2b6671387e5afd2284fef725c483cf0dea94dea64b4688b98fc26d802",
		"max events": "16ebd241d8fa36a64166f88af6851754bd792a35c40fbdbbe1e97cfba3dfa3c0",
		"deadlock":   "ee55e86168ad8300623d92db705dfecd74c948fbe9c73311d37a8561ddc0639d",
		"next":       "55c4d256b9a9eac1ecb038566d19bbd69d40b9c5fe7a19b29e9458527be5a260",
	}
)

// TestStepsMatchConsecutiveCalls: random programs on a noisy fabric, seeds
// 1–8 at each P, observe what the consecutive-call path observed.
func TestStepsMatchConsecutiveCalls(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16} {
		var runs []stepRun
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)*100 + int64(p)))
			prog := randomSteps(rng, p, 3+rng.Intn(25))
			base := rng.Intn(1000)
			fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
			if err != nil {
				t.Fatal(err)
			}
			var events []TraceEvent
			a := runChunks(newStepWorld(fab, &events), &events, prog, base)
			if a.err != nil {
				t.Fatalf("P=%d seed %d: %v", p, seed, a.err)
			}
			runs = append(runs, a)
		}
		if got := digest(runs...); got != stepsGolden[p] {
			t.Errorf("P=%d: observations hash to %s, the reference to %s", p, got, stepsGolden[p])
		}
	}
}

// TestStageMatchesOneRequestPerCall: the random programs of the test that
// compared a stage with one caller-owned request per call (60 seeds, noisy
// fabric), in their step form (stageRounds), observe what the one-request-
// per-call path observed.
func TestStageMatchesOneRequestPerCall(t *testing.T) {
	var runs []stepRun
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := 2 + rng.Intn(7)
		prog := stageRounds(rng, p, 4+rng.Intn(20))
		fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		var events []TraceEvent
		a := runChunks(newStepWorld(fab, &events), &events, prog, 0)
		if a.err != nil {
			t.Fatalf("seed %d: %v", seed, a.err)
		}
		runs = append(runs, a)
	}
	if len(runs[0].events) == 0 {
		t.Fatal("seed 1's program sent nothing")
	}
	if got := digest(runs...); got != stageGolden {
		t.Errorf("observations hash to %s, the reference to %s", got, stageGolden)
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
	next := randomSteps(rng, 5, 8)

	cases := []struct {
		name string
		prog [][]stepChunk
		max  int    // WithMaxEvents; 0 is unbounded
		fail string // the error's start; empty for success
	}{
		{"unexpected", unexpected, 0, ""},
		{"empty", empty, 0, ""},
		{"max events", long, 40, "mpi: run exceeded 40 events"},
		{"deadlock", deadlock, 0, "mpi: deadlock, ranks [0] blocked at t=0.001621576; rank 0 step 42 (tag 999) waits for sends from [3]"},
	}
	quiet := func() *fabric.Fabric { return testFabric(t, 2, 4, 5) }
	var fresh []TraceEvent
	wantNext := runChunks(newStepWorld(quiet(), &fresh), &fresh, next, 0)
	if got := digest(wantNext); got != edgeGolden["next"] {
		t.Fatalf("next: observations hash to %s, the reference to %s", got, edgeGolden["next"])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.max > 0 {
				opts = append(opts, WithMaxEvents(tc.max))
			}
			var events []TraceEvent
			w := newStepWorld(quiet(), &events, opts...)
			a := runChunks(w, &events, tc.prog, 0)
			if (a.err == nil) != (tc.fail == "") || a.err != nil && !strings.HasPrefix(a.err.Error(), tc.fail) {
				t.Fatalf("err = %v, want one starting %q", a.err, tc.fail)
			}
			if got := digest(a); got != edgeGolden[tc.name] {
				t.Fatalf("observations hash to %s, the reference to %s", got, edgeGolden[tc.name])
			}
			if tc.fail == "" {
				return
			}
			// The World that failed runs the next program as a fresh one does.
			w.maxEvents = 0
			if got := digest(runChunks(w, &events, next, 0)); got != edgeGolden["next"] {
				t.Fatalf("the next run hashes to %s, a fresh world's to %s", got, edgeGolden["next"])
			}
		})
	}
}

// Every program is checked before the first event: a bad step anywhere in
// any of them refuses the run, naming the rank and the step, without a
// message sent.
func TestStepsCheckEveryPeerFirst(t *testing.T) {
	for _, tc := range []struct {
		bad  Step
		want string
	}{
		{Step{Tag: 1, Sends: []int{9}}, "mpi: rank 0 step 1: peer 9 out of range (size 2)"},
		{Step{Tag: 1, Recvs: []int{-3}}, "mpi: rank 0 step 1: peer -3 out of range (size 2)"},
		{Step{Tag: 1, Sends: []int{0}}, "mpi: rank 0 step 1: addresses itself"},
		{Step{Tag: 1, Recvs: []int{0}}, "mpi: rank 0 step 1: addresses itself"},
		{Step{Tag: 1, Sends: []int{1}, Bytes: -1}, "mpi: rank 0 step 1: negative message size -1"},
		{Step{Compute: -1e-6}, "mpi: rank 0 step 1: local work of -1e-06 s"},
		{Step{Compute: 1e-6, Noop: true}, "mpi: rank 0 step 1: both Compute and Noop"},
	} {
		var events []TraceEvent
		w := newStepWorld(testFabric(t, 1, 2, 2), &events)
		_, err := w.Run([]Program{{Steps: []Step{{Sends: []int{1}}, tc.bad}}, {Steps: []Step{{Recvs: []int{0}}}}})
		if err == nil || err.Error() != tc.want || len(events) != 0 || w.Events() != 0 {
			t.Errorf("program with step %+v: err %v after %d deliveries, want %q", tc.bad, err, len(events), tc.want)
		}
	}
	w := NewWorld(testFabric(t, 1, 2, 2))
	if _, err := w.Run([]Program{{}}); err == nil || err.Error() != "mpi: 1 programs for 2 ranks" {
		t.Errorf("one program for two ranks: err %v", err)
	}
	short := []Program{{Steps: []Step{{Sends: []int{1}}}, Done: []float64{}}, {Steps: []Step{{Recvs: []int{0}}}}}
	if _, err := w.Run(short); err == nil || err.Error() != "mpi: rank 0: 0 completion times for 1 steps" {
		t.Errorf("a short Done: err %v", err)
	}
}

func hx(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// foldRun writes everything a run observed into h: every delivery with its
// four times, the elapsed time and every step's completion time, per rank in
// program order (-1 for a step that never completed).
func foldRun(h io.Writer, events []TraceEvent, elapsed float64, done [][]float64) {
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %d %d %s %s %s %s\n", e.Src, e.Dst, e.Tag, e.Bytes,
			hx(e.Sent), hx(e.Arrived), hx(e.Posted), hx(e.Matched))
	}
	fmt.Fprintf(h, "elapsed %s\n", hx(elapsed))
	for r, ts := range done {
		fmt.Fprintf(h, "rank %d:", r)
		for _, x := range ts {
			fmt.Fprintf(h, " %s", hx(x))
		}
		fmt.Fprintln(h)
	}
}

// stageRounds draws TestStageMatchesOneRequestPerCall's random programs
// (the same draws, seed for seed) in the form a step program expresses: a
// blocking pairwise exchange is one step per call, a nonblocking round is
// one step holding every receive and send the round owes the rank, under
// the round's tag, each round after its Compute. Wildcard receives name
// their actual source and a held send carries no payload: a step program
// has neither wildcards nor caller-held requests.
func stageRounds(rng *rand.Rand, p, rounds int) [][]stepChunk {
	prog := make([][]stepChunk, p)
	for r := range prog {
		prog[r] = make([]stepChunk, rounds)
	}
	for k := 0; k < rounds; k++ {
		for r := 0; r < p; r++ {
			if rng.Intn(3) == 0 {
				prog[r][k].compute = float64(1+rng.Intn(40)) * usec
			}
		}
		if rng.Intn(5) == 0 {
			// Blocking pairwise exchange: lower rank sends first.
			perm := rng.Perm(p)
			for i := 0; i+1 < p; i += 2 {
				a, b := min(perm[i], perm[i+1]), max(perm[i], perm[i+1])
				prog[a][k].steps = []Step{{Tag: k, Sends: []int{b}}, {Tag: k, Recvs: []int{b}}}
				prog[b][k].steps = []Step{{Tag: k, Recvs: []int{a}}, {Tag: k, Sends: []int{a}}}
			}
			continue
		}
		wild := make([]int, p) // per receiver: 0 exact, else a wildcard kind
		for r := range wild {
			wild[r] = rng.Intn(3)
		}
		recvs, sends := make([][]int, p), make([][]int, p)
		for n := rng.Intn(3 * p); n > 0; n-- {
			src, dst := rng.Intn(p), rng.Intn(p)
			if src == dst {
				continue
			}
			if rng.Intn(3) == 0 { // a held send, with its payload
				rng.Intn(3)
			}
			sends[src] = append(sends[src], dst)
			recvs[dst] = append(recvs[dst], src)
			if wild[dst] == 0 {
				rng.Intn(3) // whether the exact receive is held
			}
		}
		for r := 0; r < p; r++ {
			rng.Intn(2) // which side the round posts first
			prog[r][k].steps = []Step{{Tag: k, Recvs: recvs[r], Sends: sends[r]}}
		}
	}
	return prog
}
