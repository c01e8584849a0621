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
	data, err := os.ReadFile(out)
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
		t.Fatalf("P=%d tuned schedule fails Eq. 3 closure", scaleTestP)
	}
}

// TestSearchSyntheticLargeP runs the standalone local search at large P with
// cluster-pruned proposals and best-of-batch stepping — the configuration the
// sparse-frontier kernels exist for — and requires a verified barrier out.
func TestSearchSyntheticLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs searchbarrier at large P")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	text := runCmd(t, "./cmd/searchbarrier",
		"-synthetic-p", fmt.Sprint(scaleTestP),
		"-seed-alg", "dissemination",
		"-budget", "300", "-restarts", "1",
		"-cluster-prune", "-batch", "8", "-rngseed", "7")
	if !strings.Contains(text, "barrier verified: true") {
		t.Fatalf("searchbarrier did not verify the result:\n%s", text)
	}
}
