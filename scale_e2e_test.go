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

	"topobarrier/internal/analyze"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/perftest"
	"topobarrier/internal/predict"
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

// TestTuneOracleP4096 runs the pipeline in process at four times the ledger's
// largest P: the tier-derived oracle profile of a synthetic 4096-rank cluster
// (128 nodes), a budgeted core.Tune and a second, independent analyze.Vet of
// what it returns. The oracle used to be two dense 4096² matrices, 256 MB
// before tuning started.
func TestTuneOracleP4096(t *testing.T) {
	if testing.Short() || perftest.RaceEnabled {
		t.Skip("tunes 4096 ranks")
	}
	const p = 4096
	start := time.Now()
	fab, err := fabric.ScaleClusterFabric(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf := fab.TrueProfile()
	profiled := time.Since(start)
	tuned, err := core.Tune(pf, core.Options{Refine: 400, RefineBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	tunedAt := time.Since(start)
	if _, rep, err := analyze.Vet(tuned.Schedule(), analyze.Options{Predictor: predict.New(pf)}); err != nil {
		t.Fatalf("vet refuses the tuned P=%d schedule: %v\n%v", p, err, rep)
	}
	t.Logf("P=%d: oracle profile %s, tune %s, vet %s; predicted %.1f us",
		p, profiled.Round(time.Microsecond), (tunedAt - profiled).Round(time.Millisecond),
		(time.Since(start) - tunedAt).Round(time.Millisecond), tuned.PredictedCost()*1e6)
}
