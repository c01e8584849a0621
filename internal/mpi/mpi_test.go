package mpi

import (
	"math"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// testFabric builds a quiet (noise-free) fabric: `nodes` nodes of one socket
// with `cores` cores, O=10µs/L=2µs within a socket, O=50µs/L=8µs across
// nodes, Oii=1µs.
func testFabric(t testing.TB, nodes, cores, p int) *fabric.Fabric {
	t.Helper()
	spec := topo.Spec{Name: "test", Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: cores}
	params := fabric.Params{
		Classes: map[topo.LinkClass]fabric.Link{
			topo.SameSocket: {Alpha: 10e-6, Beta: 1e-9, Lambda: 2e-6},
			topo.CrossNode:  {Alpha: 50e-6, Beta: 8e-9, Lambda: 8e-6},
		},
		SelfOverhead: 1e-6,
		NICOccupancy: 20e-6,
	}
	f, err := fabric.New(spec, topo.Block{}, p, params)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const usec = 1e-6

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// sendTo, recvFrom and work spell one-operation steps: a synchronized send to each
// of dsts, a receive from each of srcs, local work.
func sendTo(tag int, dsts ...int) Step   { return Step{Tag: tag, Sends: dsts} }
func recvFrom(tag int, srcs ...int) Step { return Step{Tag: tag, Recvs: srcs} }
func work(seconds float64) Step          { return Step{Compute: seconds} }

// programs makes one single-pass program per rank of the given steps.
func programs(steps ...[]Step) []Program {
	progs := make([]Program, len(steps))
	for r, s := range steps {
		progs[r].Steps = s
	}
	return progs
}

func TestPingPongTiming(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(programs(
		[]Step{sendTo(7, 1), recvFrom(7, 1)},
		[]Step{recvFrom(7, 0), sendTo(7, 0)},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Leg 1: receiver not yet posted when rank 0 issues → O+L = 12µs.
	// Leg 2 likewise (rank 0 posts its receive only after its send
	// completes) → 24µs total.
	approx(t, elapsed, 24*usec, 1e-12, "ping-pong elapsed")
}

func TestEq2ReadyReceiverUsesSelfOverhead(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(programs(
		[]Step{work(5 * usec), sendTo(0, 1)}, // let rank 1 post its receive first
		[]Step{recvFrom(0, 0)},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Ready receiver → Oii (1µs) + L (2µs) after the 5µs delay.
	approx(t, elapsed, 8*usec, 1e-12, "ready-receiver elapsed")
}

func TestBatchFollowsEq1(t *testing.T) {
	// Rank 0 sends one empty message to each of ranks 1..4 in one batch.
	// With ready receivers, message k completes at Oii + (k+1)·L, so the
	// batch costs Oii + 4·L = 9µs (the paper's Eq. 2 form of Eq. 1).
	w := NewWorld(testFabric(t, 1, 5, 5))
	r := []Step{recvFrom(0, 0)}
	elapsed, err := w.Run(programs([]Step{work(1 * usec), sendTo(0, 1, 2, 3, 4)}, r, r, r, r))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, (1+1+4*2)*usec, 1e-12, "batch elapsed")
}

func TestBatchResetsAfterWait(t *testing.T) {
	// Two single-message sends in consecutive steps must each pay the full
	// first-message cost, not accumulate batch latency.
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(programs(
		[]Step{work(1 * usec), sendTo(0, 1), sendTo(1, 1)}, // Oii+L = 3µs each (receiver posted)
		[]Step{recvFrom(0, 0), recvFrom(1, 0)},
	))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, (1+3+3)*usec, 1e-12, "sequential sends")
}

func TestMessageSizeAddsTransferTime(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(programs([]Step{{Sends: []int{1}, Bytes: 1000}}, []Step{recvFrom(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	// O + beta·1000 + L = 10µs + 1µs + 2µs.
	approx(t, elapsed, 13*usec, 1e-12, "sized send")
}

func TestSynchronizedSendBlocksUntilMatched(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	progs := programs([]Step{sendTo(0, 1)}, []Step{work(100 * usec), recvFrom(0, 0)})
	progs[1].Done = make([]float64, 2)
	if _, err := w.Run(progs); err != nil {
		t.Fatal(err)
	}
	if sendDone, recvPosted := progs[0].End, progs[1].Done[0]; sendDone < recvPosted {
		t.Fatalf("Issend completed at %g before receive was posted at %g", sendDone, recvPosted)
	}
}

// A receive matches only its own tag: rank 1 waiting for tag 6 from rank 0
// does not take rank 0's tag-5 message, and the two deadlock; the receive
// for tag 5 takes it.
func TestTagSelectiveMatching(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(programs([]Step{sendTo(5, 1)}, []Step{recvFrom(6, 0)}))
	want := "rank 0 step 0 (tag 5) has sends to [1] unreceived; rank 1 step 0 (tag 6) waits for sends from [0]"
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("err = %v, want one ending %q", err, want)
	}
	if _, err := w.Run(programs([]Step{sendTo(5, 1), sendTo(6, 1)}, []Step{recvFrom(5, 0), recvFrom(6, 0)})); err != nil {
		t.Fatal(err)
	}
}

// Two messages with the same envelope are matched in arrival order, whether
// the receive waits for them or they wait, unexpected, for the receive.
func TestNonOvertakingSameEnvelope(t *testing.T) {
	for _, late := range []float64{0, 100 * usec} {
		var events []TraceEvent
		w := NewWorld(testFabric(t, 1, 2, 2), WithTracer(func(e TraceEvent) { events = append(events, e) }))
		_, err := w.Run(programs([]Step{sendTo(0, 1, 1)}, []Step{work(late), recvFrom(0, 0)}))
		if err == nil || len(events) != 2 {
			t.Fatalf("late %g: err %v after %d deliveries, want a deadlock after 2", late, err, len(events))
		}
		if first, second := events[0], events[1]; math.IsInf(first.Matched, 1) || !math.IsInf(second.Matched, 1) {
			t.Fatalf("late %g: the one receive matched %+v, not the first arrival %+v", late, second, first)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(programs([]Step{recvFrom(0, 1)}, nil)) // never sent
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "[0]") {
		t.Fatalf("deadlock error %q does not identify rank 0", err)
	}
	if want := "rank 0 step 0 (tag 0) waits for sends from [1]"; !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock error %q does not say %q", err, want)
	}
}

// A deadlock names at most four blocked ranks, each with what it waits for,
// and the pass of a repeated program.
func TestDeadlockNamesAFewRanks(t *testing.T) {
	const p = 6
	w := NewWorld(testFabric(t, 1, p, p))
	progs := make([]Program, p)
	for r := 1; r < p; r++ {
		progs[r] = Program{Steps: []Step{sendTo(3, 0)}, Reps: 2, Bases: []int{0, 10}}
	}
	progs[0] = Program{Steps: []Step{recvFrom(3, 1, 2, 3, 4, 5)}, Reps: 2, Bases: []int{0, 20}}
	_, err := w.Run(progs)
	want := "mpi: deadlock, ranks [0 1 2 3 4 5] blocked at t=1.5e-05; " +
		"rank 0 step 0 (tag 23) of pass 1 waits for sends from [1 2 3 4 5]; " +
		"rank 1 step 0 (tag 13) of pass 1 has sends to [0] unreceived; " +
		"rank 2 step 0 (tag 13) of pass 1 has sends to [0] unreceived; " +
		"rank 3 step 0 (tag 13) of pass 1 has sends to [0] unreceived; …"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
}

// Misuse is refused before the run's first event, naming the rank and the
// step.
func TestMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		bad  Step
		want string
	}{
		{"self-send", sendTo(0, 0), "mpi: rank 0 step 0: addresses itself"},
		{"bad-peer", sendTo(0, 99), "mpi: rank 0 step 0: peer 99 out of range (size 2)"},
		{"negative-size", Step{Sends: []int{1}, Bytes: -1}, "mpi: rank 0 step 0: negative message size -1"},
		{"negative-compute", work(-1), "mpi: rank 0 step 0: local work of -1 s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(testFabric(t, 1, 2, 2))
			_, err := w.Run(programs([]Step{tc.bad}, nil))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestComputeAdvancesOnlyLocalTime(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	progs := programs([]Step{work(1.5)}, nil)
	progs[0].Done = make([]float64, 1)
	elapsed, err := w.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if t1 := progs[0].Done[0]; t1 != 1.5 || progs[1].End != 0 || elapsed != 1.5 {
		t.Fatalf("compute times: t1=%g other rank's end=%g elapsed=%g", t1, progs[1].End, elapsed)
	}
	// Zero local work takes no time and no event.
	before := w.Events()
	if elapsed, err := w.Run(programs([]Step{work(0)}, []Step{work(0)})); err != nil || elapsed != 0 || w.Events()-before != 2 {
		t.Fatalf("zero work: elapsed %g, %d events, err %v", elapsed, w.Events()-before, err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		const p = 24
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1234))
		if err != nil {
			t.Fatal(err)
		}
		// All-to-root then root-to-all, twice.
		progs := make([]Program, p)
		var others []int
		for r := 1; r < p; r++ {
			others = append(others, r)
			progs[r] = Program{Steps: []Step{sendTo(0, 0), recvFrom(100, 0)}, Reps: 2, Bases: []int{0, 1}}
		}
		progs[0] = Program{Steps: []Step{recvFrom(0, others...), sendTo(100, others...)}, Reps: 2, Bases: []int{0, 1}}
		elapsed, err := NewWorld(f).Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical seeds produced %g vs %g", a, b)
	}
	if a <= 0 {
		t.Fatalf("elapsed = %g", a)
	}
}

func TestCongestionSerialisesNIC(t *testing.T) {
	// Ranks 0 and 1 (node 0) each message ranks 2 and 3 (node 1).
	progs := func() []Program {
		return programs([]Step{sendTo(0, 2)}, []Step{sendTo(0, 3)}, []Step{recvFrom(0, 0)}, []Step{recvFrom(0, 1)})
	}
	free := NewWorld(testFabric(t, 2, 2, 4))
	tFree, err := free.Run(progs())
	if err != nil {
		t.Fatal(err)
	}
	congested := NewWorld(testFabric(t, 2, 2, 4), WithCongestion())
	tCong, err := congested.Run(progs())
	if err != nil {
		t.Fatal(err)
	}
	if tCong <= tFree {
		t.Fatalf("congestion did not slow the exchange: %g vs %g", tCong, tFree)
	}
}

func TestMaxEventsBound(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2), WithMaxEvents(3))
	_, err := w.Run([]Program{
		{Steps: []Step{sendTo(0, 1)}, Reps: 100},
		{Steps: []Step{recvFrom(0, 0)}, Reps: 100},
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want event-bound error", err)
	}
}

func TestTracerSeesDeliveries(t *testing.T) {
	var events []TraceEvent
	w := NewWorld(testFabric(t, 1, 2, 2), WithTracer(func(e TraceEvent) { events = append(events, e) }))
	if _, err := w.Run(programs([]Step{{Tag: 9, Sends: []int{1}, Bytes: 64}}, []Step{recvFrom(9, 0)})); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("traced %d events, want 1", len(events))
	}
	e := events[0]
	if e.Src != 0 || e.Dst != 1 || e.Tag != 9 || e.Bytes != 64 {
		t.Fatalf("trace event = %+v", e)
	}
	if e.Arrived <= e.Sent {
		t.Fatalf("trace times not ordered: %+v", e)
	}
}

// TestTracerRecordsTheMatch pins the two match times of a trace event: a
// waiting receiver matches at arrival, a message that sat unexpected matches
// when its receive is posted, and one nobody receives never does (its
// sender is left blocked, and the run ends in a deadlock).
func TestTracerRecordsTheMatch(t *testing.T) {
	const late = 1e-3
	var events []TraceEvent
	w := NewWorld(testFabric(t, 1, 2, 2), WithTracer(func(e TraceEvent) { events = append(events, e) }))
	_, err := w.Run(programs(
		[]Step{sendTo(1, 1), sendTo(2, 1), sendTo(3, 1)},
		[]Step{recvFrom(1, 0), work(late), recvFrom(2, 0)},
	))
	if err == nil || !strings.Contains(err.Error(), "rank 0 step 2 (tag 3) has sends to [1] unreceived") {
		t.Fatalf("err = %v, want rank 0's third send unreceived", err)
	}
	if len(events) != 3 {
		t.Fatalf("traced %d events, want 3", len(events))
	}
	if e := events[0]; e.Posted != 0 || e.Matched != e.Arrived {
		t.Errorf("waiting receiver: %+v", e)
	}
	if e := events[1]; e.Posted <= e.Arrived || e.Posted < late || e.Matched != e.Posted {
		t.Errorf("unexpected message: %+v", e)
	}
	if e := events[2]; !math.IsInf(e.Posted, 1) || !math.IsInf(e.Matched, 1) {
		t.Errorf("message nobody received: %+v", e)
	}
}

func TestNoopInitiateAdvancesTime(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run([]Program{{Steps: []Step{{Noop: true}}, Reps: 5}, {}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, 5*usec, 1e-12, "noop initiations")
}

// A World runs any number of Runs, each as a fresh one would.
func TestManySequentialRunsDoNotLeak(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 4, 4))
	gather := programs([]Step{recvFrom(0, 1, 2, 3)}, []Step{sendTo(0, 0)}, []Step{sendTo(0, 0)}, []Step{sendTo(0, 0)})
	want, err := NewWorld(testFabric(t, 1, 4, 4)).Run(gather)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		before := w.Events()
		elapsed, err := w.Run(gather)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed != want || w.Events()-before != 4+3 {
			t.Fatalf("run %d: elapsed %g in %d events, a fresh world %g in 7", i, elapsed, w.Events()-before, want)
		}
	}
}

func TestWorldAccessors(t *testing.T) {
	f := testFabric(t, 1, 3, 3)
	w := NewWorld(f)
	if w.Size() != 3 || w.Fabric() != f {
		t.Fatalf("accessors wrong")
	}
	if _, err := w.Run(make([]Program, 3)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(testFabric(b, 1, 2, 2))
	progs := programs([]Step{sendTo(0, 1), recvFrom(0, 1)}, []Step{recvFrom(0, 0), sendTo(0, 0)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanIn32(b *testing.B) {
	const p = 32
	f, err := fabric.New(topo.QuadCluster(), topo.Block{}, p, fabric.GigEParams(1))
	if err != nil {
		b.Fatal(err)
	}
	w := NewWorld(f)
	progs := make([]Program, p)
	var leaves []int
	for r := 1; r < p; r++ {
		leaves = append(leaves, r)
		progs[r].Steps = []Step{sendTo(0, 0)}
	}
	progs[0].Steps = []Step{recvFrom(0, leaves...)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
}
