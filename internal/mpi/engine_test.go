package mpi

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// A Run that ends early — deadlock, event budget — must report the same
// error text every time and leave nothing behind in the World: the next Run
// measures and traces exactly what the same programs do on a fresh World,
// and its receives match no mail the failed Run left unreceived.
func TestFailedRunsTearDownAndWorldRunsAgain(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		progs []Program
		want  string
		again []Program // programs the same World must then run cleanly
	}{
		{
			name: "deadlock",
			progs: programs(
				[]Step{recvFrom(7, 3)}, // never sent
				[]Step{recvFrom(7, 3)},
				nil,
				[]Step{sendTo(9, 0)}, // arrives unexpected at rank 0, never received
			),
			want: "mpi: deadlock, ranks [0 1 3] blocked at t=1.2e-05; " +
				"rank 0 step 0 (tag 7) waits for sends from [3]; " +
				"rank 1 step 0 (tag 7) waits for sends from [3]; " +
				"rank 3 step 0 (tag 9) has sends to [0] unreceived",
			again: lateMailThenPingPong(),
		},
		{
			name: "max events",
			opts: []Option{WithMaxEvents(5)},
			progs: []Program{
				{Steps: []Step{work(1e-6)}, Reps: 1000},
				{Steps: []Step{work(1e-6)}, Reps: 1000},
				{Steps: []Step{work(1e-6)}, Reps: 1000},
				{Steps: []Step{sendTo(9, 0)}}, // still in flight when the budget runs out
			},
			want: "mpi: run exceeded 5 events",
			// Four start events and one delivery fit the budget.
			again: programs([]Step{recvFrom(9, 3)}, nil, nil, []Step{sendTo(9, 0)}),
		},
		{
			name:  "max events before every rank started",
			opts:  []Option{WithMaxEvents(2)},
			progs: programs([]Step{work(1e-6)}, []Step{work(1e-6)}, []Step{work(1e-6)}, []Step{work(1e-6)}),
			want:  "mpi: run exceeded 2 events",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []TraceEvent
			w := NewWorld(testFabric(t, 1, 4, 4), append(tc.opts, WithTracer(func(e TraceEvent) { got = append(got, e) }))...)
			for i := 0; i < 3; i++ {
				_, err := w.Run(tc.progs)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("run %d: err = %v, want %q", i, err, tc.want)
				}
			}
			if tc.again == nil {
				return
			}
			got = got[:0]
			elapsed, err := w.Run(tc.again)
			if err != nil {
				t.Fatalf("world unusable after failed runs: %v", err)
			}
			var want []TraceEvent
			fresh := NewWorld(testFabric(t, 1, 4, 4), append(tc.opts, WithTracer(func(e TraceEvent) { want = append(want, e) }))...)
			wantElapsed, err := fresh.Run(tc.again)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed != wantElapsed || !slices.Equal(got, want) {
				t.Fatalf("after failed runs: elapsed %g, trace %v; a fresh world: %g, %v", elapsed, got, wantElapsed, want)
			}
		})
	}
}

// lateMailThenPingPong has rank 3 send rank 0 the envelope the failed runs
// left unreceived, but only after 50 µs: a leftover message would match at
// once. Then ranks 0 and 1 ping-pong three times.
func lateMailThenPingPong() []Program {
	pp := func(first, second Step) Program {
		return Program{Steps: []Step{first, second}, Reps: 3}
	}
	return []Program{
		{Steps: []Step{recvFrom(9, 3), sendTo(0, 1), recvFrom(0, 1), sendTo(0, 1), recvFrom(0, 1), sendTo(0, 1), recvFrom(0, 1)}},
		pp(recvFrom(0, 0), sendTo(0, 0)),
		{},
		{Steps: []Step{work(50e-6), sendTo(9, 0)}},
	}
}

// World.Run runs its loop on the caller's goroutine and starts none, so a
// caller locked to its OS thread runs like any other, before and after
// unlocked ones, and one World may pass between such goroutines.
func TestRunOnALockedThread(t *testing.T) {
	want, err := NewWorld(testFabric(t, 1, 4, 4)).Run(lateMailThenPingPong())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(testFabric(t, 1, 4, 4))
	for i, locked := range []bool{true, false, true, false} {
		got := make(chan float64)
		go func() {
			if locked {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			elapsed, err := w.Run(lateMailThenPingPong())
			if err != nil {
				t.Error(err)
			}
			got <- elapsed
		}()
		if elapsed := <-got; elapsed != want {
			t.Fatalf("run %d (locked %v) took %g, a fresh world %g", i, locked, elapsed, want)
		}
	}
}

// pingPong bounces rounds zero-byte messages between ranks 0 and 1 of a
// p-rank world; other ranks idle.
func pingPong(p, rounds int) []Program {
	progs := make([]Program, p)
	progs[0] = Program{Steps: []Step{sendTo(0, 1), recvFrom(0, 1)}, Reps: rounds}
	progs[1] = Program{Steps: []Step{recvFrom(0, 0), sendTo(0, 0)}, Reps: rounds}
	return progs
}

// Steady-state allocation ceiling. The channel engine spent ~10 allocations
// per blocking message (closure, boxed heap event, envelope, two requests,
// two wait sets, variadic slices); events carry their payload by value and a
// step's operations are counters on its rank, leaving only slice growth.
func TestAllocsPerMessageCeiling(t *testing.T) {
	const rounds = 1000
	w := NewWorld(testFabric(t, 1, 2, 2))
	progs := pingPong(2, rounds)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := w.Run(progs); err != nil {
			t.Fatal(err)
		}
	})
	perMsg := allocs / (2 * rounds)
	t.Logf("%.3f allocations per message (%.0f per run)", perMsg, allocs)
	if perMsg > 1 {
		t.Fatalf("%.2f allocations per message, want <= 1", perMsg)
	}
}

// The single-owner contract: a Fabric and the Worlds over it belong to one
// goroutine at a time, and separate fabrics share nothing — so four jobs on
// four fabrics may run concurrently (clean under -race), each mixing
// deadlocked Runs with good ones, and each still replays exactly what it
// does alone.
func TestSeparateFabricsRunConcurrently(t *testing.T) {
	job := func(seed uint64) []float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 6, fabric.GigEParams(seed))
		if err != nil {
			t.Error(err)
			return nil
		}
		w := NewWorld(f)
		good := append(lateMailThenPingPong(), Program{}, Program{})
		bad := slices.Clone(good)
		bad[2] = Program{Steps: []Step{recvFrom(5, 4)}} // never sent
		var out []float64
		for i := 0; i < 30; i++ {
			deadlock := i%3 == 1
			progs := good
			if deadlock {
				progs = bad
			}
			elapsed, err := w.Run(progs)
			if (err != nil) != deadlock {
				t.Errorf("seed %d run %d: err = %v", seed, i, err)
			}
			out = append(out, elapsed)
		}
		return out
	}
	const jobs = 4
	var alone, together [jobs][]float64
	for i := range alone {
		alone[i] = job(uint64(i + 1))
	}
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = job(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range alone {
		if !slices.Equal(together[i], alone[i]) {
			t.Fatalf("job %d measured %v concurrently, %v alone", i, together[i], alone[i])
		}
	}
}

func BenchmarkWorldPingPong(b *testing.B) {
	const rounds = 1000
	w := NewWorld(testFabric(b, 1, 2, 2))
	progs := pingPong(2, rounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*rounds), "ns/msg")
}
