// Package perftest keeps wall-clock assertions out of tier-1. A speed-up floor
// measured inside `go test ./...` fails on a loaded 2-core box for reasons
// that have nothing to do with the code under test, so such floors are
// enforced only when TOPOBARRIER_PERF=1 (CI's perf-floors job sets it);
// everywhere else the test still runs the measured code paths, reports the
// numbers, and passes.
package perftest

import (
	"os"
	"syscall"
	"testing"
	"time"
)

// Floor checks one wall-clock floor: when met is false the test fails if
// floors are enforced and the miss is only logged otherwise.
func Floor(t testing.TB, met bool, format string, args ...any) {
	t.Helper()
	switch {
	case met:
	case os.Getenv("TOPOBARRIER_PERF") == "1":
		t.Fatalf(format, args...)
	default:
		t.Logf("wall-clock floor missed, not enforced without TOPOBARRIER_PERF=1: "+format, args...)
	}
}

// SteadyAllocs checks that work(2n) allocates exactly as often as work(n):
// whatever an iteration needs is allocated once and reused, so the steady
// state allocates nothing. Give it deterministic work (a noise-free fabric),
// or slice growth at a noise-dependent high-water mark shows up as a
// difference. Skipped under the race detector.
func SteadyAllocs(t *testing.T, what string, n int, work func(iters int)) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	once := testing.AllocsPerRun(3, func() { work(n) })
	twice := testing.AllocsPerRun(3, func() { work(2 * n) })
	if once != twice {
		t.Errorf("%s: %d iterations allocate %.0f times, %d allocate %.0f", what, n, once, 2*n, twice)
	}
}

// CPUSeconds returns the user plus system CPU time the process has used.
// Benchmarks report its growth over their wall time as "busy-cores": how much
// of the box the measured code keeps working.
func CPUSeconds(tb testing.TB) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
