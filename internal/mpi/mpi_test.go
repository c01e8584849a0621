package mpi

import (
	"math"
	"strings"
	"sync/atomic"
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

func TestPingPongTiming(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, 0)
			st := c.Recv(1, 7)
			if st.Src != 1 || st.Tag != 7 {
				panic("bad status")
			}
		} else {
			c.Recv(0, 7)
			c.Send(0, 7, 0)
		}
	})
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
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 0)
			return
		}
		c.Compute(5 * usec) // let rank 1 post its receive first
		c.Send(1, 0, 0)
	})
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
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			c.Recv(0, 0)
			return
		}
		c.Compute(1 * usec)
		var reqs []*Request
		for dst := 1; dst < c.Size(); dst++ {
			reqs = append(reqs, c.Issend(dst, 0, 0))
		}
		c.Wait(reqs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, (1+1+4*2)*usec, 1e-12, "batch elapsed")
}

func TestBatchResetsAfterWait(t *testing.T) {
	// Two single-message sends separated by Wait must each pay the full
	// first-message cost, not accumulate batch latency.
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 0)
			c.Recv(0, 1)
			return
		}
		c.Compute(1 * usec)
		c.Send(1, 0, 0) // Oii+L = 3µs (receiver posted)
		c.Send(1, 1, 0) // again 3µs
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, (1+3+3)*usec, 1e-12, "sequential sends")
}

func TestMessageSizeAddsTransferTime(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, 1000)
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// O + beta·1000 + L = 10µs + 1µs + 2µs.
	approx(t, elapsed, 13*usec, 1e-12, "sized send")
}

func TestSynchronizedSendBlocksUntilMatched(t *testing.T) {
	var sendDone, recvPosted float64
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, 0)
			sendDone = c.Wtime()
		} else {
			c.Compute(100 * usec)
			recvPosted = c.Wtime()
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < recvPosted {
		t.Fatalf("Issend completed at %g before receive was posted at %g", sendDone, recvPosted)
	}
}

func TestWildcardReceive(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 3, 3))
	_, err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			st := c.Recv(AnySource, AnyTag)
			if st.Src != 1 && st.Src != 2 {
				panic("bad wildcard source")
			}
			st2 := c.Recv(AnySource, AnyTag)
			if st2.Src == st.Src {
				panic("same source matched twice")
			}
		default:
			c.Send(0, c.Rank()*10, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Send tag 5 then tag 6.
			a := c.Issend(1, 5, 0)
			b := c.Issend(1, 6, 0)
			c.Wait(a, b)
		} else {
			// Receive them in reverse tag order.
			st := c.Recv(0, 6)
			if st.Tag != 6 {
				panic("tag 6 recv matched wrong message")
			}
			st = c.Recv(0, 5)
			if st.Tag != 5 {
				panic("tag 5 recv matched wrong message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameEnvelope(t *testing.T) {
	// Two same-tag messages must match posted receives in arrival order;
	// we verify by size bookkeeping through completion times.
	w := NewWorld(testFabric(t, 1, 2, 2))
	var first, second float64
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			a := c.Issend(1, 0, 0)
			b := c.Issend(1, 0, 0)
			c.Wait(a, b)
		} else {
			q1 := c.Irecv(0, 0)
			q2 := c.Irecv(0, 0)
			c.Wait(q1, q2)
			first, second = q1.completedAt, q2.completedAt
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first > second {
		t.Fatalf("receives completed out of order: %g then %g", first, second)
	}
}

func TestDeadlockDetection(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0) // never sent
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "[0]") {
		t.Fatalf("deadlock error %q does not identify rank 0", err)
	}
}

func TestRankPanicIsReported(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 3, 3))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		if c.Rank() == 0 {
			c.Recv(2, 0) // would deadlock, but the panic must win
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want rank 2 panic", err)
	}
}

func TestMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(c *Comm)
	}{
		{"self-send", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(0, 0, 0)
			}
		}},
		{"bad-peer", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(99, 0, 0)
			}
		}},
		{"negative-size", func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, -1)
			}
		}},
		{"negative-compute", func(c *Comm) {
			if c.Rank() == 0 {
				c.Compute(-1)
			}
		}},
		{"foreign-wait", func(c *Comm) {
			if c.Rank() == 0 {
				q := c.Irecv(1, 0)
				_ = q
				c.Send(1, 0, 0)
			} else {
				q := c.Irecv(0, 0)
				q.owner = 0 // simulate waiting on someone else's request
				c.Wait(q)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(testFabric(t, 1, 2, 2))
			_, err := w.Run(tc.body)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want panic report", err)
			}
		})
	}
	// A World keeps one run state, so a body may not start a Run of its own
	// World; the World still runs afterwards.
	t.Run("nested-run", func(t *testing.T) {
		w := NewWorld(testFabric(t, 1, 2, 2))
		_, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				_, _ = w.Run(func(*Comm) {})
			}
		})
		if err == nil || !strings.Contains(err.Error(), "World.Run called from inside a Run of the same World") {
			t.Fatalf("err = %v, want the nested-Run panic", err)
		}
		if _, err := w.Run(func(c *Comm) { pingPong(c, 2) }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestComputeAdvancesOnlyLocalTime(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	var t0, t1 float64
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			t0 = c.Wtime()
			c.Compute(1.5)
			t1 = c.Wtime()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if t0 != 0 || t1 != 1.5 || elapsed != 1.5 {
		t.Fatalf("compute times: t0=%g t1=%g elapsed=%g", t0, t1, elapsed)
	}
	// Compute(0) is a no-op.
	if _, err := w.Run(func(c *Comm) { c.Compute(0) }); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 24, fabric.GigEParams(1234))
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorld(f)
		elapsed, err := w.Run(func(c *Comm) {
			// All-to-root then root-to-all, twice.
			for iter := 0; iter < 2; iter++ {
				if c.Rank() == 0 {
					for src := 1; src < c.Size(); src++ {
						c.Recv(AnySource, iter)
					}
					var reqs []*Request
					for dst := 1; dst < c.Size(); dst++ {
						reqs = append(reqs, c.Issend(dst, 100+iter, 0))
					}
					c.Wait(reqs...)
				} else {
					c.Send(0, iter, 0)
					c.Recv(0, 100+iter)
				}
			}
		})
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
	body := func(c *Comm) {
		// Ranks 0 and 1 (node 0) each message ranks 2 and 3 (node 1).
		if c.Rank() < 2 {
			c.Send(c.Rank()+2, 0, 0)
		} else {
			c.Recv(c.Rank()-2, 0)
		}
	}
	free := NewWorld(testFabric(t, 2, 2, 4))
	tFree, err := free.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	congested := NewWorld(testFabric(t, 2, 2, 4), WithCongestion())
	tCong, err := congested.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	if tCong <= tFree {
		t.Fatalf("congestion did not slow the exchange: %g vs %g", tCong, tFree)
	}
}

func TestMaxEventsBound(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2), WithMaxEvents(3))
	_, err := w.Run(func(c *Comm) {
		for i := 0; i < 100; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, 0)
			} else {
				c.Recv(0, i)
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want event-bound error", err)
	}
}

func TestTracerSeesDeliveries(t *testing.T) {
	var events []TraceEvent
	w := NewWorld(testFabric(t, 1, 2, 2), WithTracer(func(e TraceEvent) { events = append(events, e) }))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, 64)
		} else {
			c.Recv(0, 9)
		}
	})
	if err != nil {
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
// when its receive is posted, and one nobody receives never does.
func TestTracerRecordsTheMatch(t *testing.T) {
	const late = 1e-3
	var events []TraceEvent
	w := NewWorld(testFabric(t, 1, 2, 2), WithTracer(func(e TraceEvent) { events = append(events, e) }))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 0)
			c.Send(1, 2, 0)
			c.Issend(1, 3, 0) // never matched: left pending when the run ends
		} else {
			c.Recv(0, 1)
			c.Compute(late)
			c.Recv(0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
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
	elapsed, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.NoopInitiate()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, elapsed, 5*usec, 1e-12, "noop initiations")
}

func TestManySequentialRunsDoNotLeak(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 4, 4))
	var count int64
	for i := 0; i < 50; i++ {
		_, err := w.Run(func(c *Comm) {
			atomic.AddInt64(&count, 1)
			if c.Rank() > 0 {
				c.Send(0, 0, 0)
			} else {
				for j := 1; j < c.Size(); j++ {
					c.Recv(AnySource, 0)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if count != 200 {
		t.Fatalf("bodies ran %d times, want 200", count)
	}
}

func TestWorldAccessors(t *testing.T) {
	f := testFabric(t, 1, 3, 3)
	w := NewWorld(f)
	if w.Size() != 3 || w.Fabric() != f {
		t.Fatalf("accessors wrong")
	}
	_, err := w.Run(func(c *Comm) {
		if c.Size() != 3 {
			panic("Comm.Size wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(testFabric(b, 1, 2, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, 0)
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Send(0, 0, 0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanIn32(b *testing.B) {
	f, err := fabric.New(topo.QuadCluster(), topo.Block{}, 32, fabric.GigEParams(1))
	if err != nil {
		b.Fatal(err)
	}
	w := NewWorld(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				for j := 1; j < c.Size(); j++ {
					c.Recv(AnySource, 0)
				}
			} else {
				c.Send(0, 0, 0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
