package topobarrier_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"topobarrier/internal/sched"
)

// TestTuneSyntheticLargeP drives the full adaptive pipeline — SSS clustering,
// hybrid composition, barriervet, cluster-pruned batched refinement, plan
// compilation — against the noise-free profile of a synthetic 1024-rank
// hierarchical cluster, entirely through the tunebarrier CLI. The budgeted
// tune must finish in seconds and emit a vet-clean schedule that the Eq. 3
// closure verifies as a barrier.
func TestTuneSyntheticLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs tunebarrier at large P")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "sched.json")

	start := time.Now()
	text := runCmd(t, "./cmd/tunebarrier",
		"-synthetic-p", fmt.Sprint(scaleTestP),
		"-refine", "400", "-refine-batch", "8",
		"-o", out)
	elapsed := time.Since(start)
	t.Logf("P=%d budgeted tune: %s (including go run compile)", scaleTestP, elapsed.Round(time.Millisecond))

	if want := fmt.Sprintf("(P=%d)", scaleTestP); !strings.Contains(text, want) {
		t.Fatalf("tunebarrier output lacks %q:\n%s", want, text[:min(len(text), 800)])
	}
	checkStoredBarrier(t, out)
}

// checkStoredBarrier loads a schedule a command wrote with -o and requires a
// scaleTestP-rank barrier.
func checkStoredBarrier(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s sched.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("stored schedule: %v", err)
	}
	if s.P != scaleTestP {
		t.Fatalf("stored schedule has P=%d, want %d", s.P, scaleTestP)
	}
	if !s.IsBarrier() {
		t.Fatalf("P=%d stored schedule fails Eq. 3 closure", scaleTestP)
	}
}

// TestSearchSyntheticLargeP anneals from a classic seed at large P with
// cluster-pruned proposals and best-of-batch stepping — the configuration the
// sparse-frontier kernels exist for — through tunebarrier -seed-alg, and
// requires a verified barrier out, on screen and in the stored schedule.
func TestSearchSyntheticLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs tunebarrier -seed-alg at large P")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	out := filepath.Join(t.TempDir(), "sched.json")
	text := runCmd(t, "./cmd/tunebarrier",
		"-synthetic-p", fmt.Sprint(scaleTestP),
		"-seed-alg", "dissemination",
		"-refine", "300", "-refine-batch", "8", "-rngseed", "7",
		"-o", out)
	if !strings.Contains(text, "barrier verified: true") {
		t.Fatalf("tunebarrier -seed-alg did not verify the result:\n%s", text)
	}
	checkStoredBarrier(t, out)
}
