package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// settledGoroutines returns the goroutine count once it has settled at want,
// or whatever it reads after two seconds of trying: a rank coroutine stopped
// beyond the pool's bound may still be exiting when Run returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// A Run that ends early — deadlock, rank panic, event budget — must report
// the same error text as ever, hand every rank coroutine back to the pool
// (the goroutine count after the third failed Run is the count after the
// first), and leave nothing behind in the World: the next Run measures and
// traces exactly what the same body does on a fresh World, and its AnySource
// receive matches no mail the failed Run left unreceived.
func TestFailedRunsTearDownAndWorldRunsAgain(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		body  func(*Comm)
		want  string
		again func(*Comm) // a body the same World must then run cleanly
	}{
		{
			name: "deadlock",
			body: func(c *Comm) {
				switch c.Rank() {
				case 0, 1:
					c.Recv(3, 7) // never sent
				case 3:
					c.Issend(0, 9, 0) // arrives unexpected at rank 0, never received
				}
			},
			want:  "mpi: deadlock, ranks [0 1] blocked at t=1.2e-05",
			again: anySourceThenPingPong,
		},
		{
			name: "panic",
			body: func(c *Comm) {
				if c.Rank() == 2 {
					panic("boom")
				}
				c.Recv(2, 0) // blocked forever behind the panicked rank
			},
			want:  "mpi: rank 2 panicked: boom",
			again: anySourceThenPingPong,
		},
		{
			name: "panic after blocking",
			body: func(c *Comm) {
				c.Compute(1e-6)
				if c.Rank() == 1 {
					panic("late boom")
				}
				c.Recv(1, 0)
			},
			want:  "mpi: rank 1 panicked: late boom",
			again: anySourceThenPingPong,
		},
		{
			name: "max events",
			opts: []Option{WithMaxEvents(5)},
			body: func(c *Comm) {
				if c.Rank() == 3 {
					c.Issend(0, 9, 0) // still in flight when the budget runs out
				}
				for {
					c.Compute(1e-6)
				}
			},
			want:  "mpi: run exceeded 5 events",
			again: anySource, // four start events and one delivery fit the budget
		},
		{
			name: "max events before every rank started",
			opts: []Option{WithMaxEvents(2)},
			body: func(c *Comm) { c.Compute(1e-6) },
			want: "mpi: run exceeded 2 events",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []TraceEvent
			w := NewWorld(testFabric(t, 1, 4, 4), append(tc.opts, WithTracer(func(e TraceEvent) { got = append(got, e) }))...)
			base := 0
			for i := 0; i < 3; i++ {
				_, err := w.Run(tc.body)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("run %d: err = %v, want %q", i, err, tc.want)
				}
				if i == 0 {
					base = runtime.NumGoroutine()
				}
			}
			if n := settledGoroutines(base); n != base {
				t.Fatalf("%d goroutines after the third failed run, %d after the first", n, base)
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

// anySource has rank 0 receive from any source and tag, and rank 1 send it
// one message; it panics if the receive matched anything else.
func anySource(c *Comm) {
	switch c.Rank() {
	case 0:
		if st := c.Recv(AnySource, AnyTag); st != (Status{Src: 1, Tag: 4}) {
			panic(fmt.Sprintf("AnySource receive matched %+v", st))
		}
	case 1:
		c.Send(0, 4, 0)
	}
}

func anySourceThenPingPong(c *Comm) {
	anySource(c)
	pingPong(c, 3)
}

// A body that calls runtime.Goexit (t.FailNow from inside a rank) ends the
// goroutine that called Run, as it always has. Its coroutine is gone and must
// not go back to the pool: the ranks of every later Run still start.
func TestGoexitInABodyDiscardsItsCoroutine(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 4, 4))
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = w.Run(func(c *Comm) {
			c.Compute(1e-6)
			if c.Rank() == 1 {
				runtime.Goexit()
			}
			c.Recv(1, 0)
		})
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a rank called runtime.Goexit")
	}
	for i := 0; i < 3; i++ {
		elapsed, err := w.Run(anySourceThenPingPong)
		if err != nil {
			t.Fatalf("run %d after the Goexit: %v", i, err)
		}
		want, err := NewWorld(testFabric(t, 1, 4, 4)).Run(anySourceThenPingPong)
		if err != nil || elapsed != want {
			t.Fatalf("run %d after the Goexit took %g, a fresh world %g (%v)", i, elapsed, want, err)
		}
	}
}

// pingPong bounces rounds zero-byte messages between ranks 0 and 1; other
// ranks idle.
func pingPong(c *Comm, rounds int) {
	switch c.Rank() {
	case 0:
		for i := 0; i < rounds; i++ {
			c.Send(1, 0, 0)
			c.Recv(1, 0)
		}
	case 1:
		for i := 0; i < rounds; i++ {
			c.Recv(0, 0)
			c.Send(0, 0, 0)
		}
	}
}

// Steady-state allocation ceiling. The channel engine spent ~10 allocations
// per blocking message (closure, boxed heap event, envelope, two requests,
// two wait sets, variadic slices); events now carry their payload by value
// and blocking calls recycle their requests, leaving only slice growth
// (measured 0.02 per message).
func TestAllocsPerMessageCeiling(t *testing.T) {
	const rounds = 1000
	w := NewWorld(testFabric(t, 1, 2, 2))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := w.Run(func(c *Comm) { pingPong(c, rounds) }); err != nil {
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
// goroutine at a time, and separate fabrics share nothing but the pool of
// idle rank coroutines — so four jobs on four fabrics may run concurrently
// (clean under -race), each mixing deadlocked Runs, which leave a rank
// parked, with good ones, and each still replays exactly what it does alone.
func TestSeparateFabricsRunConcurrently(t *testing.T) {
	job := func(seed uint64) []float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 6, fabric.GigEParams(seed))
		if err != nil {
			t.Error(err)
			return nil
		}
		w := NewWorld(f)
		var out []float64
		for i := 0; i < 30; i++ {
			deadlock := i%3 == 1
			elapsed, err := w.Run(func(c *Comm) {
				if deadlock && c.Rank() == 2 {
					c.Recv(4, 5) // never sent
				}
				anySourceThenPingPong(c)
			})
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(func(c *Comm) { pingPong(c, rounds) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*rounds), "ns/msg")
}
