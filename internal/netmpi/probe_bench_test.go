package netmpi

import (
	"testing"
	"time"

	"topobarrier/internal/perftest"
)

// delayMesh builds a loopback mesh whose every link carries d of injected
// one-way frame latency (via faultnet), emulating a real fabric. Bare
// loopback exchanges are syscall-bound, so on a small host the probe
// schedules are indistinguishable; with wait-dominated links the wall-clock
// structure of the schedule — what the parallel rounds optimise — becomes
// observable regardless of core count.
func delayMesh(tb testing.TB, p int, d time.Duration) []*Peer {
	tb.Helper()
	return delayHybridMesh(tb, p, nil, d)
}

// benchLinkDelay approximates one-way latency on a switched gigabit fabric.
const benchLinkDelay = 200 * time.Microsecond

// BenchmarkProbeProfile compares the probe schedules at P=8 over a mesh with
// realistic link latency: the one-pair-at-a-time reference (probeSequential)
// against the edge-colored parallel rounds, with and without adaptive
// stable-K stopping. The parallel rounds collapse the 28 sequential series
// into 7 joined rounds of 4 concurrent pairs, and adaptive stopping trims each
// series' sample tail. samples/op is the timed round trips one probe took: a
// pair is one series that yields both directions, so 28 × 8 without stopping.
func BenchmarkProbeProfile(b *testing.B) {
	const p = 8
	b.Run("sequential", func(b *testing.B) {
		peers := delayMesh(b, p, benchLinkDelay)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probeSequential(b, peers, ProbeOptions{MaxIters: 8})
		}
	})
	for _, c := range []struct {
		name string
		opts ProbeOptions
	}{
		{"parallel", ProbeOptions{MaxIters: 8}},
		{"parallel-adaptive", ProbeOptions{MaxIters: 8, StableK: 3}},
	} {
		b.Run(c.name, func(b *testing.B) {
			peers := delayMesh(b, p, benchLinkDelay)
			samples := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := ProbeProfileOpts(peers, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				samples += rep.TotalSamples()
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}

// TestProbeProfileParallelSpeedup is the regression companion of the
// benchmark: on wait-dominated links the parallel adaptive schedule must beat
// the sequential reference by at least 2× wall clock (the benchmark
// demonstrates ≥4×; the test bound is lenient so scheduler noise on loaded
// CI hosts cannot flake it). Each schedule gets the best of three runs.
func TestProbeProfileParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison, skipped in -short")
	}
	const p = 8
	peers := delayMesh(t, p, benchLinkDelay)

	best := func(probe func() time.Duration) time.Duration {
		fastest := probe()
		for a := 1; a < 3; a++ {
			fastest = min(fastest, probe())
		}
		return fastest
	}
	seq := best(func() time.Duration {
		_, elapsed := probeSequential(t, peers, ProbeOptions{MaxIters: 8})
		return elapsed
	})
	par := best(func() time.Duration {
		_, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 8, StableK: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	})
	perftest.Floor(t, par*2 <= seq, "parallel adaptive probe %v vs sequential %v — less than the 2× floor", par, seq)
	t.Logf("P=%d probe: sequential %v, parallel adaptive %v (%.1f×)", p, seq, par, float64(seq)/float64(par))
}
