package netmpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/perftest"
	"topobarrier/internal/run"
)

// BenchmarkBarrierTransport is the transport latency trajectory: the tuned
// plan executed back to back over the three mesh shapes — pure-TCP loopback,
// fully co-located shared memory, and the realistic two-node mix (half the
// ranks per node, so the plan's local phases run over shm and its root
// exchange over TCP) — at P=8 and P=16. Every rank is one goroutine looping
// b.N barriers over alternating tag windows, as an application would; ns/op
// is the period of the slowest rank. CI archives the results as
// BENCH_hybrid.json.
func BenchmarkBarrierTransport(b *testing.B) {
	for _, p := range []int{8, 16} {
		for _, tc := range []struct {
			name  string
			nodes []int
		}{
			{"tcp", nil},
			{"hybrid", oneNode(p)},
			{"mixed", twoNodes(p)},
		} {
			b.Run(fmt.Sprintf("p%d-%s", p, tc.name), func(b *testing.B) {
				pl := tunedPlan(b, p)
				peers := hybridMesh(b, p, tc.nodes)
				loop := func(n int) {
					var wg sync.WaitGroup
					for _, pe := range peers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < n; i++ {
								if err := pe.Barrier(pl, (i%2)*run.TagSpan, 30*time.Second); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
				}
				loop(100) // warm-up; even, so the timed loop starts on window 0 too
				b.ReportAllocs()
				b.ResetTimer()
				loop(b.N)
			})
		}
	}
}

// sendRecvShapes are the two link classes the allocation checks cover, with
// the allocations a steady-state empty send→receive pair may cost on each:
// none on shared memory — the put reuses the mailbox's backing array and the
// receive finds its message without parking — and at most one amortized on
// TCP, whose frame buffer and deadline timer are pooled.
var sendRecvShapes = []struct {
	name      string
	nodes     []int
	maxAllocs float64
}{
	{"tcp", nil, 1},
	{"shm", oneNode(2), 0},
}

// BenchmarkSendAllocs measures per-send allocations on both transports with
// a matching receive per operation (so mailboxes stay empty and the numbers
// are steady-state).
func BenchmarkSendAllocs(b *testing.B) {
	for _, tc := range sendRecvShapes {
		b.Run(tc.name, func(b *testing.B) {
			peers := hybridMesh(b, 2, tc.nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := peers[0].Send(1, 5, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := peers[1].Recv(0, 5, meshTimeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSendAllocsPooled pins the barrier hot path's allocation budget: a
// steady-state empty-frame send+receive round under a receive deadline, as
// Barrier issues it, stays within sendRecvShapes' bound on each transport.
func TestSendAllocsPooled(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("race instrumentation allocates shadow state; allocation counts are meaningless there")
	}
	for _, tc := range sendRecvShapes {
		t.Run(tc.name, func(t *testing.T) {
			peers := hybridMesh(t, 2, tc.nodes)
			round := func() {
				if err := peers[0].Send(1, 5, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := peers[1].Recv(0, 5, meshTimeout); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				round() // warm the pools and the mailbox
			}
			avg := testing.AllocsPerRun(500, round)
			if avg > tc.maxAllocs {
				t.Fatalf("empty-frame send+recv allocates %.2f objects/op, want ≤ %g", avg, tc.maxAllocs)
			}
			t.Logf("%s empty-frame send+recv: %.2f allocs/op", tc.name, avg)
		})
	}
}

// TestBarrierAllocsWarm pins the executor's own allocation budget: a warm
// Barrier of a compiled plan allocates nothing on shared memory, on any rank
// — run.Plan.RankOps hands out the plan's compiled view instead of a copy —
// and only TCP's amortized pool refills otherwise. Ranks 1..P-1 are parked
// goroutines released once per round, so the count covers one whole barrier.
// tunedPlan's release stage is a 3-target fan-out (0 → {1, 2, 3} and
// 4 → {5, 6, 7}), so the tcp case covers the link writers' hand-off. On
// twoNodes those fan-outs are all shared memory; pairs co-locates 0 with 1
// and 4 with 5, so there a stage mixes an shm put with TCP hand-offs. The
// epoch rows run the same plan through EpochRunner, whose version word rides
// every frame and must cost nothing extra.
func TestBarrierAllocsWarm(t *testing.T) {
	if perftest.RaceEnabled {
		t.Skip("race instrumentation allocates shadow state; allocation counts are meaningless there")
	}
	const p = 8
	for _, tc := range []struct {
		name      string
		nodes     []int
		via       string // "barrier", "epoch" (EpochRunner) or "stage" (Peer.Stage over RankOps)
		maxAllocs float64
	}{
		{"tcp", nil, "barrier", 1},
		{"shm", oneNode(p), "barrier", 0},
		{"mixed", twoNodes(p), "barrier", 1},
		{"pairs", []int{0, 0, 1, 1, 2, 2, 3, 3}, "barrier", 1},
		{"epoch-tcp", nil, "epoch", 1},
		{"epoch-shm", oneNode(p), "epoch", 0},
		{"stage-tcp", nil, "stage", 1},
		{"stage-shm", oneNode(p), "stage", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := tunedPlan(t, p)
			peers := hybridMesh(t, p, tc.nodes)
			var runners []*EpochRunner
			if tc.via == "epoch" {
				eps, err := NewEpochs(pl)
				if err != nil {
					t.Fatal(err)
				}
				runners = newRunners(t, peers, eps)
			}
			n := 0
			barrier := func(r int) {
				var err error
				switch tc.via {
				case "epoch":
					err = runners[r].Barrier(meshTimeout)
				case "stage":
					for _, st := range pl.RankOps(r) {
						if err = peers[r].Stage((n%2)*run.TagSpan+st.Stage, st.Recvs, st.Sends); err != nil {
							break
						}
					}
				default:
					err = peers[r].Barrier(pl, (n%2)*run.TagSpan, meshTimeout)
				}
				if err != nil {
					t.Error(err)
				}
			}
			start, done := make(chan struct{}), make(chan struct{})
			for r := 1; r < p; r++ {
				go func() {
					for range start {
						barrier(r)
						done <- struct{}{}
					}
				}()
			}
			defer close(start)
			round := func() {
				for range peers[1:] {
					start <- struct{}{}
				}
				barrier(0)
				for range peers[1:] {
					<-done
				}
				n++ // after every rank left the barrier, so no rank reads it mid-write
			}
			for i := 0; i < 100; i++ {
				round()
			}
			avg := testing.AllocsPerRun(500, round)
			t.Logf("%s warm %d-rank barrier: %.2f allocs", tc.name, p, avg)
			if avg > tc.maxAllocs {
				t.Fatalf("warm barrier allocates %.2f objects, want ≤ %g", avg, tc.maxAllocs)
			}
		})
	}
}
