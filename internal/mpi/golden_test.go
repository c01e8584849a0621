package mpi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

// Bit-identity pins. The goldens were recorded on the channel-scheduled
// engine (commit 4f1afd3) before the coroutine core replaced it; any engine
// change must reproduce them exactly: same deliveries, in the same order, at
// the same virtual times to the last bit.

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// traceHasher returns a World option that folds every delivered message into
// h, and a function rendering the digest.
func traceHasher() (mpi.Option, func() string) {
	h := sha256.New()
	opt := mpi.WithTracer(func(e mpi.TraceEvent) {
		fmt.Fprintf(h, "%d %d %d %d %s %s\n", e.Src, e.Dst, e.Tag, e.Bytes, hexFloat(e.Sent), hexFloat(e.Arrived))
	})
	return opt, func() string { return hex.EncodeToString(h.Sum(nil)) }
}

func profileHash(pf *profile.Profile) string {
	h := sha256.New()
	for i := 0; i < pf.P; i++ {
		for j := 0; j < pf.P; j++ {
			fmt.Fprintf(h, "%s %s\n", hexFloat(pf.O.At(i, j)), hexFloat(pf.L.At(i, j)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 16, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGoldenProbeTraceAndProfile(t *testing.T) {
	opt, sum := traceHasher()
	pf, err := probe.Measure(mpi.NewWorld(goldenFabric(t), opt), probe.Default())
	if err != nil {
		t.Fatal(err)
	}
	const wantTrace = "4dce10ee091e38f3033f6b3c938e9654d194c9e4b429d32364bfb24ed12e8b86"
	const wantProfile = "7bd6b0a8fca128d5558d1f6f2ffc27d4ea5da386d8f7fc4d2ead095c8f5adbe0"
	if got := sum(); got != wantTrace {
		t.Errorf("probe trace hash = %s, want %s", got, wantTrace)
	}
	if got := profileHash(pf); got != wantProfile {
		t.Errorf("probed profile O/L hash = %s, want %s", got, wantProfile)
	}
}

func TestGoldenDisseminationTrace(t *testing.T) {
	opt, sum := traceHasher()
	w := mpi.NewWorld(goldenFabric(t), opt)
	pl, err := run.NewPlan(sched.Dissemination(16))
	if err != nil {
		t.Fatal(err)
	}
	m, err := run.Measure(w, pl.Func(), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	const wantTrace = "69e2a6382a31e104c53ece2944688e0e874dca3319ff47a33b7e1d5e5ea160b2"
	const wantMean = "0x1.47ae578993e3bp-14"
	if got := sum(); got != wantTrace {
		t.Errorf("dissemination trace hash = %s, want %s", got, wantTrace)
	}
	if got := hexFloat(m.Mean); got != wantMean {
		t.Errorf("dissemination mean = %s, want %s", got, wantMean)
	}
}

func TestGoldenCongestionTrace(t *testing.T) {
	opt, sum := traceHasher()
	w := mpi.NewWorld(goldenFabric(t), opt, mpi.WithCongestion())
	// Payload-carrying linear exchange: every rank's cross-node sends queue
	// on its node's NIC, so the occupancy path decides most arrival times.
	pl, err := run.NewPlan(sched.Linear(16))
	if err != nil {
		t.Fatal(err)
	}
	m, err := run.Measure(w, withPayload(pl, 4096), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	const wantTrace = "a3b3c15321ca1b6b467923f715038f1b002874837e19f8acf0c4aa6174723327"
	const wantMean = "0x1.014785ca18b8cp-11"
	if got := sum(); got != wantTrace {
		t.Errorf("congestion trace hash = %s, want %s", got, wantTrace)
	}
	if got := hexFloat(m.Mean); got != wantMean {
		t.Errorf("congestion mean = %s, want %s", got, wantMean)
	}
}

// withPayload runs the plan's stages with bytes of payload per message: the
// plan's own program sends zero-byte signals only.
func withPayload(pl *run.Plan, bytes int) run.Func {
	return func(rank, p int) []mpi.Step {
		steps := slices.Clone(pl.RankOps(rank))
		for k := range steps {
			steps[k].Bytes = bytes
		}
		return steps
	}
}
