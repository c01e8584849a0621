package netmpi

import (
	"strings"
	"testing"
	"time"

	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// barrierMesh forms a loopback mesh and runs one dissemination barrier on
// every rank, returning after all ranks complete.
func runMeshBarrier(t *testing.T, peers []*Peer, pl *run.Plan) {
	t.Helper()
	errs := make(chan error, len(peers))
	for _, pe := range peers {
		pe := pe
		go func() { errs <- pe.Barrier(pl, 0, 5*time.Second) }()
	}
	for range peers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeshTelemetryCounters checks the per-link counters, the latency
// histograms and the spans on both transports. A TCP frame is counted as
// received by its reader goroutine; a shared-memory frame has no reader, so
// its receive counts it — either way every frame sent is a frame received
// once the barrier is over, and the counters carry the link's transport.
func TestMeshTelemetryCounters(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		transport string
		nodes     []int
	}{
		{"tcp", nil},
		{"shm", oneNode(p)},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer()
			peers, err := HybridMesh(p, tc.nodes, 5*time.Second, WithTelemetry(reg), WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer CloseMesh(peers)

			s := sched.Dissemination(p)
			pl, err := run.NewPlan(s)
			if err != nil {
				t.Fatal(err)
			}
			runMeshBarrier(t, peers, pl)
			// One payload-carrying message on top, for the byte counters.
			if err := peers[0].Send(1, 3*run.TagSpan, []byte("12345")); err != nil {
				t.Fatal(err)
			}
			if _, err := peers[1].Recv(0, 3*run.TagSpan, 5*time.Second); err != nil {
				t.Fatal(err)
			}

			snap := reg.Snapshot()
			total := func(metric string) int64 {
				sum := int64(0)
				for name, v := range snap {
					if !strings.HasPrefix(name, metric) {
						continue
					}
					if n := v.(int64); n != 0 && !strings.Contains(name, `transport="`+tc.transport+`"`) {
						t.Errorf("%s = %d on a pure-%s mesh", name, n, tc.transport)
					} else {
						sum += n
					}
				}
				return sum
			}
			// Dissemination over 4 ranks: each rank sends one frame per stage
			// (2 stages), plus the one payload message.
			want := int64(p*pl.Stages + 1)
			if sent := total("netmpi_send_frames_total"); sent != want {
				t.Fatalf("sent frames = %d, want %d\nsnapshot: %v", sent, want, snap)
			}
			if recv := total("netmpi_recv_frames_total"); recv != want {
				t.Fatalf("received %d frames, sent %d", recv, want)
			}
			if sent, recv := total("netmpi_send_bytes_total"), total("netmpi_recv_bytes_total"); sent != 5 || recv != 5 {
				t.Fatalf("payload bytes: sent %d, received %d, want 5 and 5", sent, recv)
			}

			// Every rank recorded one barrier duration and per-stage durations.
			for r := 0; r < p; r++ {
				name := telemetry.Label("netmpi_barrier_seconds", "rank", string(rune('0'+r)))
				hv, ok := snap[name].(map[string]any)
				if !ok {
					t.Fatalf("missing histogram %s in snapshot", name)
				}
				if hv["count"].(int64) != 1 {
					t.Fatalf("%s count = %v, want 1", name, hv["count"])
				}
			}

			// Spans: p dial spans plus p·stages barrier stage spans.
			evs := tr.Events()
			stageSpans, dialSpans := 0, 0
			for _, e := range evs {
				switch {
				case strings.HasPrefix(e.Name, "barrier.stage:"):
					stageSpans++
					if e.Stage < 0 || e.Stage >= pl.Stages || e.Rank < 0 || e.Rank >= p {
						t.Fatalf("bad stage span %+v", e)
					}
					if e.Name != "barrier.stage:"+tc.transport {
						t.Fatalf("pure-%s mesh emitted span %q", tc.transport, e.Name)
					}
				case e.Name == "netmpi.dial":
					dialSpans++
				}
			}
			if stageSpans != p*pl.Stages {
				t.Fatalf("stage spans = %d, want %d", stageSpans, p*pl.Stages)
			}
			if dialSpans != p {
				t.Fatalf("dial spans = %d, want %d", dialSpans, p)
			}
		})
	}
}

func TestMeshWithoutTelemetryRecordsNothing(t *testing.T) {
	peers, err := LoopbackMesh(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	s := sched.Dissemination(2)
	pl, err := run.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	runMeshBarrier(t, peers, pl)
	// Nothing to assert beyond "no panic": every metric handle is nil.
}

func TestFailureLatchCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	peers, err := LoopbackMesh(2, 5*time.Second, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	// Kill rank 1; rank 0 must latch a failure, visible in the counter.
	peers[1].Close()
	if _, err := peers[0].Recv(1, 7, 2*time.Second); err == nil {
		t.Fatal("Recv from closed peer succeeded")
	}
	c := reg.Counter(telemetry.Label("netmpi_failures_total", "rank", "0"))
	if c.Value() != 1 {
		t.Fatalf("failure latch counter = %d, want 1", c.Value())
	}
}

func TestProbeProfile(t *testing.T) {
	const p = 3
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	pf, _, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pf.P != p {
		t.Fatalf("profile P = %d, want %d", pf.P, p)
	}
	if err := pf.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		if pf.O.At(i, i) <= 0 {
			t.Fatalf("O[%d][%d] = %g, want > 0", i, i, pf.O.At(i, i))
		}
		for j := 0; j < p; j++ {
			if i != j && pf.O.At(i, j) <= 0 {
				t.Fatalf("O[%d][%d] = %g, want > 0", i, j, pf.O.At(i, j))
			}
		}
	}
	// The mesh must still be healthy for barrier traffic after probing.
	pl, err := run.NewPlan(sched.Dissemination(p))
	if err != nil {
		t.Fatal(err)
	}
	runMeshBarrier(t, peers, pl)
}

func TestProbeProfileArgErrors(t *testing.T) {
	peers, err := LoopbackMesh(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	if _, _, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: -1}); err == nil {
		t.Fatal("accepted a negative iteration budget")
	}
	if _, _, err := ProbeProfileOpts(peers, ProbeOptions{StableK: -1}); err == nil {
		t.Fatal("accepted a negative stability window")
	}
	if _, _, err := ProbeProfileOpts(peers[:1], ProbeOptions{MaxIters: 1}); err == nil {
		t.Fatal("accepted partial mesh")
	}
	if _, _, err := ProbeProfileOpts([]*Peer{peers[1], peers[0]}, ProbeOptions{MaxIters: 1}); err == nil {
		t.Fatal("accepted out-of-order mesh")
	}
}

func TestLoopbackMeshRejectsTinyMesh(t *testing.T) {
	if _, err := LoopbackMesh(1, time.Second); err == nil {
		t.Fatal("accepted a 1-rank mesh")
	}
}
