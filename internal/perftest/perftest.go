// Package perftest keeps wall-clock assertions out of tier-1. A speed-up floor
// measured inside `go test ./...` fails on a loaded 2-core box for reasons
// that have nothing to do with the code under test, so such floors are
// enforced only when TOPOBARRIER_PERF=1 (CI's perf-floors job sets it);
// everywhere else the test still runs the measured code paths, reports the
// numbers, and passes.
package perftest

import (
	"os"
	"testing"
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
