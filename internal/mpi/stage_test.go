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
	// held operations are caller-owned requests in both spellings; the others
	// make up the round's Stage.
	held bool
}

// A progRound is what one rank does in one round: a Compute, then either a
// blocking exchange or its held operations followed by one stage.
type progRound struct {
	compute  float64
	blocking bool // ops run as Send / Recv in list order
	ops      []progOp
}

// randomProgram builds a deadlock-free P-rank program. Every round has its
// own tag and every rank posts all of the round's operations before waiting,
// so any message set is safe. Wildcards are drawn per (round, receiver), and
// such a receiver's receives are all held, so a wildcard receive can only
// take a message its round owes that rank: AnySource keeps the round's tag,
// AnyTag keeps the source, and a sender cannot run ahead into its next round
// before every synchronized send of this one has been matched. A Stage
// signal carries no payload; held sends may.
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
				prog[a][k].ops = []progOp{{peer: b, tag: k}, {recv: true, peer: b, tag: k}}
				prog[b][k].ops = []progOp{{recv: true, peer: a, tag: k}, {peer: a, tag: k}}
			}
			continue
		}
		wild := make([]int, p) // per receiver: 0 exact, 1 AnySource, 2 AnyTag
		for r := range wild {
			wild[r] = rng.Intn(3)
		}
		recvs, sends := make([][]progOp, p), make([][]progOp, p)
		for n := rng.Intn(3 * p); n > 0; n-- {
			src, dst := rng.Intn(p), rng.Intn(p)
			if src == dst {
				continue
			}
			sop := progOp{peer: dst, tag: k, held: rng.Intn(3) == 0}
			if sop.held {
				sop.bytes = rng.Intn(3) * 512
			}
			sends[src] = append(sends[src], sop)
			rop := progOp{recv: true, peer: src, tag: k, held: wild[dst] != 0 || rng.Intn(3) == 0}
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
			if rng.Intn(2) == 0 { // held sends first: the Eq. 2 ready-receiver case flips
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

// runProgram executes prog. Each nonblocking round posts its held operations
// as caller-owned requests, then runs the rest as one stage, then waits for
// the held ones. With staged set the stage is one Comm.Stage call; otherwise
// it is spelled with one caller-owned request per operation — Irecv for the
// receives, then a zero-byte Issend for the sends — and one Comm.Wait.
func runProgram(t *testing.T, fab *fabric.Fabric, prog [][]progRound, staged bool) transcript {
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
			var own []*Request
			var stageRecvs, stageSends []int
			for _, op := range rd.ops {
				switch {
				case !op.held && op.recv:
					stageRecvs = append(stageRecvs, op.peer)
				case !op.held:
					stageSends = append(stageSends, op.peer)
				case op.recv:
					own = append(own, c.Irecv(op.peer, op.tag))
				default:
					own = append(own, c.Issend(op.peer, op.tag, op.bytes))
				}
				if op.held {
					q := own[len(own)-1]
					note("r%d posted done=%v", k, q.done)
					held = append(held, heldReq{q: q})
				}
			}
			if staged {
				if err := c.Stage(k, stageRecvs, stageSends); err != nil {
					panic(err)
				}
			} else {
				var reqs []*Request
				for _, src := range stageRecvs {
					reqs = append(reqs, c.Irecv(src, k))
				}
				for _, dst := range stageSends {
					reqs = append(reqs, c.Issend(dst, k, 0))
				}
				c.Wait(reqs...)
			}
			note("r%d stage t=%x", k, c.Wtime())
			c.Wait(own...)
			note("r%d end t=%x", k, c.Wtime())
			for i := range held {
				if h := &held[i]; !h.seen && h.q.done {
					h.seen, h.at, h.src, h.tag = true, h.q.completedAt, h.q.Src, h.q.Tag
					note("r%d held %x %d/%d", k, h.at, h.src, h.tag)
				}
			}
		}
		// Caller-owned requests must have survived every later recycle.
		for _, h := range held {
			if !h.q.done || h.q.completedAt != h.at || h.q.Src != h.src || h.q.Tag != h.tag {
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

// TestStageMatchesOneRequestPerCall is the recycling property: random
// programs mixing Stage with caller-owned Issend / Irecv, Wait, blocking
// calls and wildcard receives observe exactly what the same program spelled
// with one caller-owned request per call observes — delivery stream, virtual
// times, matched envelopes — on a noisy fabric, so a single extra, missing or
// reordered RNG draw would show. A request recycled while still live trips
// newRequest's assertion or changes a held request.
func TestStageMatchesOneRequestPerCall(t *testing.T) {
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
						t.Fatalf("seed %d rank %d observation %d: staged %q, plain %q", seed, r, i, got.Ranks[r][i], want.Ranks[r][i])
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
