package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// A progOp is one nonblocking operation of a random program's round.
type progOp struct {
	recv      bool
	peer, tag int // recv: source (maybe AnySource) and tag (maybe AnyTag)
	bytes     int
	sync      bool // send: Issend rather than Isend
	held      bool // the caller keeps the request in both spellings
}

// A progRound is what one rank does in one round: a Compute, an Iprobe poll,
// either a blocking exchange or a set of nonblocking operations it then waits
// for.
type progRound struct {
	compute  float64
	blocking bool // ops run as Send / Recv in list order
	ops      []progOp
}

// randomProgram builds a deadlock-free P-rank program. Every round has its
// own tag and every rank posts all of the round's operations before waiting,
// so any message set is safe; wildcards are drawn per (round, receiver) so a
// wildcard receive can only take a message its round owes that rank:
// AnySource keeps the round's tag, AnyTag keeps the source and is only drawn
// in all-synchronized rounds (an eager sender could run ahead and have its
// next round's message overtake).
func randomProgram(rng *rand.Rand, p, rounds int) [][]progRound {
	prog := make([][]progRound, p)
	for r := range prog {
		prog[r] = make([]progRound, rounds)
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
				prog[a][k].blocking, prog[b][k].blocking = true, true
				prog[a][k].ops = []progOp{{peer: b, tag: k, sync: true}, {recv: true, peer: b, tag: k}}
				prog[b][k].ops = []progOp{{recv: true, peer: a, tag: k}, {peer: a, tag: k, sync: true}}
			}
			continue
		}
		allSync := rng.Intn(2) == 0
		wild := make([]int, p) // per receiver: 0 exact, 1 AnySource, 2 AnyTag
		for r := range wild {
			if wild[r] = rng.Intn(3); wild[r] == 2 && !allSync {
				wild[r] = 0
			}
		}
		recvs, sends := make([][]progOp, p), make([][]progOp, p)
		for n := rng.Intn(3 * p); n > 0; n-- {
			src, dst := rng.Intn(p), rng.Intn(p)
			if src == dst {
				continue
			}
			sends[src] = append(sends[src], progOp{peer: dst, tag: k, bytes: rng.Intn(3) * 512,
				sync: allSync || rng.Intn(2) == 0, held: rng.Intn(3) == 0})
			rop := progOp{recv: true, peer: src, tag: k, held: rng.Intn(3) == 0}
			switch wild[dst] {
			case 1:
				rop.peer = AnySource
			case 2:
				rop.tag = AnyTag
			}
			recvs[dst] = append(recvs[dst], rop)
		}
		for r := 0; r < p; r++ {
			ops := append(recvs[r], sends[r]...)
			if rng.Intn(2) == 0 { // sends first: the Eq. 2 ready-receiver case flips
				ops = append(sends[r], recvs[r]...)
			}
			prog[r][k].ops = ops
		}
	}
	return prog
}

// transcript is everything a program run can observe.
type transcript struct {
	Events  []TraceEvent
	Elapsed float64
	Ranks   [][]string // per rank: one line per observation, in program order
}

// runProgram executes prog. With batched set, operations not marked held go
// through the rank's Batch; otherwise every operation is its own caller-owned
// request waited on with Comm.Wait — the one-request-per-call spelling.
func runProgram(t *testing.T, fab *fabric.Fabric, prog [][]progRound, batched bool) transcript {
	t.Helper()
	var tr transcript
	tr.Ranks = make([][]string, len(prog))
	w := NewWorld(fab, WithTracer(func(e TraceEvent) { tr.Events = append(tr.Events, e) }))
	elapsed, err := w.Run(func(c *Comm) {
		me := c.Rank()
		note := func(format string, args ...any) {
			tr.Ranks[me] = append(tr.Ranks[me], fmt.Sprintf(format, args...))
		}
		type heldReq struct {
			q        *Request
			seen     bool // completion observed and recorded below
			at       float64
			src, tag int
		}
		var held []heldReq
		for k, rd := range prog[me] {
			c.Compute(rd.compute)
			note("r%d probe=%v", k, c.Iprobe(AnySource, AnyTag))
			if rd.blocking {
				for _, op := range rd.ops {
					if op.recv {
						st := c.Recv(op.peer, op.tag)
						note("r%d recv %d/%d", k, st.Src, st.Tag)
					} else {
						c.Send(op.peer, op.tag, op.bytes)
					}
				}
				note("r%d end t=%x", k, c.Wtime())
				continue
			}
			b := c.Batch()
			var own []*Request
			for _, op := range rd.ops {
				switch {
				case batched && !op.held && op.recv:
					b.Irecv(op.peer, op.tag)
				case batched && !op.held && op.sync:
					b.Issend(op.peer, op.tag, op.bytes)
				case batched && !op.held:
					b.Isend(op.peer, op.tag, op.bytes)
				case op.recv:
					own = append(own, c.Irecv(op.peer, op.tag))
				case op.sync:
					own = append(own, c.Issend(op.peer, op.tag, op.bytes))
				default:
					own = append(own, c.Isend(op.peer, op.tag, op.bytes))
				}
				if op.held {
					q := own[len(own)-1]
					note("r%d test=%v", k, c.Test(q))
					held = append(held, heldReq{q: q})
				}
			}
			if k%2 == 0 {
				c.Wait(own...)
				b.Wait()
			} else {
				b.Wait()
				c.Wait(own...)
			}
			note("r%d end t=%x", k, c.Wtime())
			for i := range held {
				if h := &held[i]; !h.seen && h.q.Done() {
					h.seen, h.at, h.src, h.tag = true, h.q.CompletedAt(), h.q.Src, h.q.Tag
					note("r%d held %x %d/%d", k, h.at, h.src, h.tag)
				}
			}
		}
		// Caller-owned requests must have survived every later recycle.
		for _, h := range held {
			if !c.Test(h.q) || h.q.CompletedAt() != h.at || h.q.Src != h.src || h.q.Tag != h.tag {
				panic(fmt.Sprintf("held request changed after completion: %+v vs %+v", *h.q, h))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Elapsed = elapsed
	return tr
}

// TestBatchMatchesOneRequestPerCall is the recycling property: random
// programs mixing the Batch with caller-owned Isend / Issend / Irecv, Wait,
// Test, Iprobe, blocking calls and wildcard receives observe exactly what the
// same program spelled with one caller-owned request per call observes —
// delivery stream, virtual times, matched envelopes — on a noisy fabric, so a
// single extra, missing or reordered RNG draw would show. A request recycled
// while still live trips newRequest's assertion or changes a held request.
func TestBatchMatchesOneRequestPerCall(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := 2 + rng.Intn(7)
		prog := randomProgram(rng, p, 4+rng.Intn(20))
		newFab := func() *fabric.Fabric {
			f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(seed))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		got := runProgram(t, newFab(), prog, true)
		want := runProgram(t, newFab(), prog, false)
		if len(want.Events) == 0 && seed == 1 {
			t.Fatal("program sent nothing")
		}
		if !reflect.DeepEqual(got, want) {
			for r := range want.Ranks {
				for i := 0; i < min(len(got.Ranks[r]), len(want.Ranks[r])); i++ {
					if got.Ranks[r][i] != want.Ranks[r][i] {
						t.Fatalf("seed %d rank %d observation %d: batched %q, plain %q", seed, r, i, got.Ranks[r][i], want.Ranks[r][i])
					}
				}
			}
			t.Fatalf("seed %d: transcripts differ (elapsed %x vs %x, %d vs %d events)",
				seed, got.Elapsed, want.Elapsed, len(got.Events), len(want.Events))
		}
	}
}

// A request on the free list is complete and in nobody's wait; newRequest
// asserts it when it hands the storage out again.
func TestRecycledLiveRequestPanics(t *testing.T) {
	w := NewWorld(testFabric(t, 1, 2, 2))
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.r.recycle(c.Irecv(1, 0)) // still posted, not done
			c.Irecv(1, 1)
		}
	})
	if err == nil {
		t.Fatal("reusing a live request went unnoticed")
	}
}
