package mpi

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// settledGoroutines returns the goroutine count once it has stopped falling:
// a finished rank's goroutine may still be exiting when Run returns.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > atMost && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// A Run that ends early — deadlock, rank panic, event budget — must report
// the same error text as ever, leave no rank goroutine behind, and leave the
// World usable.
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
				if c.Rank() < 2 {
					c.Recv(3, 7) // never sent
				}
			},
			want:  "mpi: deadlock, ranks [0 1] blocked at t=0",
			again: func(c *Comm) { pingPong(c, 3) },
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
			again: func(c *Comm) { pingPong(c, 3) },
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
			again: func(c *Comm) { pingPong(c, 3) },
		},
		{
			name: "max events",
			opts: []Option{WithMaxEvents(5)},
			body: func(c *Comm) {
				for {
					c.Compute(1e-6)
				}
			},
			want:  "mpi: run exceeded 5 events",
			again: func(*Comm) {}, // four start events fit the budget
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
			w := NewWorld(testFabric(t, 1, 4, 4), tc.opts...)
			base := runtime.NumGoroutine()
			for i := 0; i < 3; i++ {
				_, err := w.Run(tc.body)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("run %d: err = %v, want %q", i, err, tc.want)
				}
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after failed runs, %d before", n, base)
			}
			if tc.again != nil {
				if _, err := w.Run(tc.again); err != nil {
					t.Fatalf("world unusable after failed runs: %v", err)
				}
			}
		})
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
// goroutine at a time, and separate fabrics share nothing — so two jobs on two
// fabrics may run concurrently (clean under -race) and each still replays
// exactly what it does alone.
func TestSeparateFabricsRunConcurrently(t *testing.T) {
	job := func(seed uint64) float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 4, fabric.GigEParams(seed))
		if err != nil {
			t.Error(err)
			return 0
		}
		w := NewWorld(f)
		total := 0.0
		for i := 0; i < 20; i++ {
			elapsed, err := w.Run(func(c *Comm) { pingPong(c, 50) })
			if err != nil {
				t.Error(err)
			}
			total += elapsed
		}
		return total
	}
	alone := [2]float64{job(1), job(2)}
	var together [2]float64
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = job(uint64(i + 1))
		}()
	}
	wg.Wait()
	if together != alone {
		t.Fatalf("concurrent jobs on separate fabrics measured %v, alone %v", together, alone)
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
