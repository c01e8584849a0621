package topobarrier_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd executes one of the repository's commands via the go tool.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runCmdExit executes a command that may legitimately exit non-zero and
// returns its combined output and exit code.
func runCmdExit(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// TestCLIPipeline drives profilecluster → tunebarrier → runbarrier →
// barriervet -emit → tunebarrier -seed-alg end to end through their public
// command-line interfaces.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the command suite")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "prof.json")
	schedule := filepath.Join(dir, "sched.json")
	genfile := filepath.Join(dir, "barrier.go")

	out := runCmd(t, "./cmd/profilecluster", "-cluster", "quad", "-p", "22", "-o", prof)
	if !strings.Contains(out, "wrote "+prof) {
		t.Fatalf("profilecluster output: %s", out)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatal(err)
	}

	out = runCmd(t, "./cmd/tunebarrier", "-profile", prof, "-o", schedule, "-maxdepth", "1")
	if !strings.Contains(out, "root") || !strings.Contains(out, "wrote "+schedule) {
		t.Fatalf("tunebarrier output:\n%s", out)
	}
	// The classic schedules' predicted costs on the same profile.
	at := strings.Index(out, "classic schedules")
	if at < 0 {
		t.Fatalf("tunebarrier prints no classic costs:\n%s", out)
	}
	for _, want := range []string{"linear", "dissemination", "tree", "predicted"} {
		if !strings.Contains(out[at:], want) {
			t.Fatalf("tunebarrier classic costs missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, "./cmd/runbarrier", "-cluster", "quad", "-p", "22", "-alg", schedule, "-iters", "10")
	if !strings.Contains(out, "µs/barrier") {
		t.Fatalf("runbarrier output:\n%s", out)
	}
	out = runCmd(t, "./cmd/runbarrier", "-cluster", "quad", "-p", "22", "-alg", "mpi", "-iters", "10")
	if !strings.Contains(out, "MPI barrier") {
		t.Fatalf("runbarrier mpi output:\n%s", out)
	}

	out = runCmd(t, "./cmd/barriervet", "-emit", genfile, "-pkg", "main", "-func", "B", schedule)
	if !strings.Contains(out, "wrote "+genfile) {
		t.Fatalf("barriervet -emit output:\n%s", out)
	}
	src, err := os.ReadFile(genfile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package main") || !strings.Contains(string(src), "func B(c topobarrier.Stager, tagBase int) error") {
		t.Fatalf("barriervet -emit source:\n%s", src)
	}

	out = runCmd(t, "./cmd/tunebarrier", "-profile", prof, "-seed-alg", "tree", "-refine", "300")
	if !strings.Contains(out, "search from tree(22)") || !strings.Contains(out, "barrier verified: true") {
		t.Fatalf("tunebarrier -seed-alg tree output:\n%s", out)
	}

	// A negative count is a usage error naming the flag, not a silent
	// fallback (no refinement, single steps, or the default profile file).
	for _, bad := range [][]string{{"-refine", "-1"}, {"-refine-batch", "-3"}, {"-synthetic-p", "-4"}} {
		out, code := runCmdExit(t, append([]string{"./cmd/tunebarrier", "-profile", prof}, bad...)...)
		if code == 0 || !strings.Contains(out, bad[0]+" must not be negative") {
			t.Fatalf("tunebarrier %v: exit %d, output:\n%s", bad, code, out)
		}
	}
}

// TestCLIExperimentsSubset regenerates two cheap figures through the
// experiments command and checks the CSV/text outputs land on disk.
func TestCLIExperimentsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the experiments command")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	out := runCmd(t, "./cmd/experiments", "-fig", "9,10", "-out", dir)
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "Figure 10") {
		t.Fatalf("experiments output:\n%s", out)
	}
	for _, f := range []string{"figure9.txt", "figure10.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
}

// TestCLIProfileCacheRoundTrip drives the tune-once-reuse-later flow on the
// fingerprinted profile cache: the second profilecluster run is a cache hit
// that skips the measurement, tuning from the cache is deterministic down to
// the schedule bytes, and the cached plan validates on the cluster.
func TestCLIProfileCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the profile-cache commands")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	profArgs := []string{"./cmd/profilecluster", "-cluster", "quad", "-p", "12", "-profile-cache", cache, "-o", filepath.Join(dir, "prof.json")}
	if out := runCmd(t, profArgs...); strings.Contains(out, "profile cache hit") {
		t.Fatalf("first profilecluster run hit an empty cache:\n%s", out)
	}
	if out := runCmd(t, profArgs...); !strings.Contains(out, "profile cache hit") {
		t.Fatalf("second profilecluster run did not hit the cache:\n%s", out)
	}

	// A hierarchy-driven profile (-full above 16 ranks) keeps its
	// measured/estimated record through the cache: the hit reports the counts
	// the measuring run did.
	var coverage [2]string
	for i := range coverage {
		out := runCmd(t, "./cmd/profilecluster", "-cluster", "quad", "-p", "24", "-full", "-profile-cache", filepath.Join(dir, "sparse-cache"), "-o", filepath.Join(dir, "sparse.json"))
		if hit := strings.Contains(out, "profile cache hit"); hit != (i == 1) {
			t.Fatalf("sparse profilecluster run %d: cache hit = %v:\n%s", i, hit, out)
		}
		at := strings.Index(out, "measured ")
		var measured, all, screened, estimated, spot, redone int
		if at < 0 {
			t.Fatalf("sparse profilecluster run %d reports no coverage:\n%s", i, out)
		}
		if _, err := fmt.Sscanf(out[at:], "measured %d of %d pairs, %d screened, %d estimated, %d spot checks (%d blocks re-measured)",
			&measured, &all, &screened, &estimated, &spot, &redone); err != nil || all != 276 || measured+estimated != all || screened == 0 || estimated == 0 || spot == 0 {
			t.Fatalf("sparse profilecluster run %d: coverage line unparsed (%v) or no screened and estimated pairs:\n%s", i, err, out)
		}
		coverage[i] = strings.TrimSpace(out[at:])
	}
	if coverage[0] != coverage[1] {
		t.Fatalf("provenance changed through the cache: %q, then %q", coverage[0], coverage[1])
	}

	var schedules [2][]byte
	for i, name := range []string{"a.json", "b.json"} {
		path := filepath.Join(dir, name)
		if out := runCmd(t, "./cmd/tunebarrier", "-profile-cache", cache, "-o", path); !strings.Contains(out, "profile cache hit") {
			t.Fatalf("tunebarrier did not load the cached profile:\n%s", out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		schedules[i] = data
	}
	if !bytes.Equal(schedules[0], schedules[1]) {
		t.Fatalf("tuning the same cached profile twice gave different schedules")
	}

	out := runCmd(t, "./cmd/runbarrier", "-cluster", "quad", "-p", "12", "-alg", filepath.Join(dir, "a.json"), "-iters", "10")
	if !strings.Contains(out, "synchronization validated") {
		t.Fatalf("runbarrier output:\n%s", out)
	}
}

// TestCLIBarrierVet drives the static analyzer end to end: a schedule that
// breaks Eq. 3 must exit non-zero with a concrete (i,j) witness, a genuine
// barrier must report clean, a linear barrier with gratuitous extra edges
// must surface removable redundant signals, and the runbarrier gate must
// refuse the broken schedule before execution.
func TestCLIBarrierVet(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the barriervet command")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	good := filepath.Join(dir, "good.json")
	fat := filepath.Join(dir, "fat.json")
	// bad: only 1→0 over three ranks; rank 2 is isolated.
	if err := os.WriteFile(bad, []byte(`{"name":"broken(3)","p":3,"stages":[[[1,0]]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// good: the full linear barrier over three ranks.
	if err := os.WriteFile(good, []byte(`{"name":"linear(3)","p":3,"stages":[[[1,0],[2,0]],[[0,1],[0,2]]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// fat: linear(3) plus a redundant extra edge 1→2 in the departure stage.
	if err := os.WriteFile(fat, []byte(`{"name":"linear-plus(3)","p":3,"stages":[[[1,0],[2,0]],[[0,1],[0,2],[1,2]]]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	genfile := filepath.Join(dir, "broken.go")
	out, code := runCmdExit(t, "./cmd/barriervet", "-emit", genfile, bad)
	if _, err := os.Stat(genfile); code == 0 || err == nil {
		t.Fatalf("barriervet -emit on a non-barrier: exit %d, source written = %v:\n%s", code, err == nil, out)
	}

	out, code = runCmdExit(t, "./cmd/barriervet", bad)
	if code == 0 {
		t.Fatalf("barriervet exit 0 on a non-barrier:\n%s", out)
	}
	for _, want := range []string{"NOT A BARRIER", "sync-witness", "never learns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("barriervet output missing %q:\n%s", want, out)
		}
	}

	out, code = runCmdExit(t, "./cmd/barriervet", good)
	if code != 0 {
		t.Fatalf("barriervet exit %d on a clean barrier:\n%s", code, out)
	}
	if !strings.Contains(out, "BARRIER (Eq. 3 satisfied)") {
		t.Fatalf("barriervet clean report:\n%s", out)
	}

	out, code = runCmdExit(t, "./cmd/barriervet", fat)
	if code != 0 {
		t.Fatalf("barriervet exit %d on redundant-but-valid barrier:\n%s", code, out)
	}
	if !strings.Contains(out, "redundant-signals") {
		t.Fatalf("barriervet did not flag the removable signal:\n%s", out)
	}

	out, code = runCmdExit(t, "./cmd/barriervet", "-json", bad)
	if code == 0 || !strings.Contains(out, `"severity": "error"`) {
		t.Fatalf("barriervet -json output (exit %d):\n%s", code, out)
	}

	// The pre-execution gate: runbarrier must refuse the broken schedule.
	out, code = runCmdExit(t, "./cmd/runbarrier", "-cluster", "quad", "-p", "3", "-alg", bad, "-iters", "1")
	if code == 0 || !strings.Contains(out, "barriervet") {
		t.Fatalf("runbarrier did not gate on analysis (exit %d):\n%s", code, out)
	}
}

// TestCLIRunBarrierNetExitCode pins the fail-fast contract at the process
// boundary: a healthy loopback-mesh run exits 0, and a run where any rank
// fails (here a severed link) exits non-zero with the failing rank named,
// rather than hanging or reporting success.
func TestCLIRunBarrierNetExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the runbarrier command over a real TCP mesh")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	out, code := runCmdExit(t, "./cmd/runbarrier", "-net", "-p", "4", "-alg", "dissemination",
		"-iters", "3", "-warmup", "1", "-telemetry", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("healthy -net run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "loopback TCP mesh") || !strings.Contains(out, "telemetry: http://") {
		t.Fatalf("healthy -net output:\n%s", out)
	}
	out, code = runCmdExit(t, "./cmd/runbarrier", "-net", "-p", "4", "-alg", "dissemination",
		"-iters", "3", "-warmup", "1", "-net-deadline", "500ms", "-net-fault", "sever:0:2")
	if code == 0 {
		t.Fatalf("-net run with a severed link exited 0:\n%s", out)
	}
	if !strings.Contains(out, "failed") || !strings.Contains(out, "fail-fast") {
		t.Fatalf("faulted -net output does not report the failure:\n%s", out)
	}
	// A measurement of zero barriers is refused up front, in every mode,
	// instead of dividing by it.
	out, code = runCmdExit(t, "./cmd/runbarrier", "-net", "-retune", "-iters", "0", "-p", "4", "-alg", "dissemination")
	if code == 0 || strings.Contains(out, "panic:") || !strings.Contains(out, "need positive -iters") {
		t.Fatalf("-iters 0 (exit %d):\n%s", code, out)
	}
}

// TestCLIRunBarrierNetRetune runs the two -retune modes to success: the
// timed run with the controller alongside, and the traced run with one
// read-only check after its last barrier.
func TestCLIRunBarrierNetRetune(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs runbarrier -retune over a real TCP mesh")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	out := runCmd(t, "./cmd/runbarrier", "-net", "-retune", "-p", "4", "-alg", "dissemination",
		"-iters", "40", "-warmup", "2")
	for _, want := range []string{"with online retuning", "retune: ", " checks ("} {
		if !strings.Contains(out, want) {
			t.Fatalf("-net -retune output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "./cmd/runbarrier", "-net", "-report", "-retune", "-p", "4", "-alg", "dissemination",
		"-iters", "2", "-warmup", "1", "-probe-iters", "3")
	if !strings.Contains(out, "retune check (tolerance") {
		t.Fatalf("-net -report -retune output has no retune check:\n%s", out)
	}
}

// TestCLIRunBarrierHybrid drives runbarrier over the hybrid shm+TCP mesh
// through its public flag surface, and pins the flag-validation error paths:
// -transport/-colocate require -net, and -colocate requires -transport hybrid.
func TestCLIRunBarrierHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the runbarrier command over a hybrid mesh")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	out, code := runCmdExit(t, "./cmd/runbarrier", "-net", "-p", "4", "-alg", "dissemination",
		"-iters", "3", "-warmup", "1", "-transport", "hybrid", "-colocate", "nodes=2")
	if code != 0 {
		t.Fatalf("healthy hybrid run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "hybrid shm+TCP mesh") {
		t.Fatalf("hybrid run output does not name the mesh:\n%s", out)
	}

	out, code = runCmdExit(t, "./cmd/runbarrier", "-p", "4", "-alg", "dissemination",
		"-transport", "hybrid")
	if code == 0 || !strings.Contains(out, "require -net") {
		t.Fatalf("-transport without -net accepted (exit %d):\n%s", code, out)
	}

	out, code = runCmdExit(t, "./cmd/runbarrier", "-net", "-p", "4", "-alg", "dissemination",
		"-iters", "1", "-colocate", "nodes=2")
	if code == 0 || !strings.Contains(out, "-transport hybrid") {
		t.Fatalf("-colocate without hybrid accepted (exit %d):\n%s", code, out)
	}
}

// TestCLITraceBarrierNetDrift drives runbarrier -report's predicted-vs-observed
// drift report over a real loopback mesh and checks the Chrome trace artifact
// parses and carries per-stage spans.
func TestCLITraceBarrierNetDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs runbarrier -report over a real TCP mesh")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out := runCmd(t, "./cmd/runbarrier", "-net", "-report", "-p", "4", "-alg", "dissemination",
		"-iters", "2", "-warmup", "1", "-probe-iters", "3", "-trace-out", traceFile)
	for _, want := range []string{"probed profile", "predicted", "observed", "drift", "total", "wrote Chrome trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("drift report missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace artifact is not valid JSON: %v", err)
	}
	stageSpans := 0
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "barrier.stage:") && e.Ph == "X" {
			stageSpans++
		}
	}
	// One traced run of dissemination(4) is 2 stages × 4 ranks, preceded by
	// an alignment barrier of the same shape: at least 16 complete spans.
	if stageSpans < 16 {
		t.Fatalf("trace artifact has %d barrier.stage spans, want ≥ 16", stageSpans)
	}
}

// TestCLITraceBarrier drives runbarrier -report on the simulator.
func TestCLITraceBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs runbarrier -report")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	out := runCmd(t, "./cmd/runbarrier", "-report", "-p", "8", "-alg", "dissemination", "-width", "60")
	for _, want := range []string{"messages", "critical path", "slowest links"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runbarrier -report output missing %q:\n%s", want, out)
		}
	}
}

// TestCLILiveProfileCacheRoundTrip tunes for the transport in two commands:
// runbarrier -net -report probes a live mesh into the fingerprinted cache (the
// second run is a hit), and tunebarrier tunes from that cache entry.
//
// A hit re-measures the first tournament round and re-probes everything when
// more than half of its directions moved past the 0.5 drift tolerance — which
// few-µs loopback costs on a loaded host legitimately do. A 2 ms write delay
// on rank 0's links makes both directions of its round-0 pair delay-dominated
// (rank 0 plays in every round), so at most the other half can drift.
func TestCLILiveProfileCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs runbarrier over a real TCP mesh and tunebarrier")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	for i, want := range []string{"profile cache miss; stored", "profile cache hit"} {
		out := runCmd(t, "./cmd/runbarrier", "-net", "-report", "-p", "4", "-alg", "dissemination",
			"-iters", "2", "-warmup", "1", "-net-fault", "delay:0:0:2ms", "-profile-cache", cache)
		if !strings.Contains(out, want) {
			t.Fatalf("live run %d: want %q:\n%s", i, want, out)
		}
	}
	schedule := filepath.Join(dir, "s.json")
	out := runCmd(t, "./cmd/tunebarrier", "-profile-cache", cache, "-o", schedule)
	if !strings.Contains(out, "(P=4)") || !strings.Contains(out, "wrote "+schedule) {
		t.Fatalf("tunebarrier from the live cache:\n%s", out)
	}
}

// TestExamplesRun builds every program under examples/ and runs each in a
// fresh directory (heatmap writes l_matrix.pgm into its working directory),
// requiring exit 0 and the line that shows the example did its job.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example, one over a real TCP mesh")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	want := map[string]string{
		"heatmap":    "wrote l_matrix.pgm",
		"netbarrier": "tuned barrier over loopback TCP:",
		"oddeven":    "the model predicts both",
		"quickstart": "synchronization validated",
		"retune":     "after re-tuning:",
		"stencil":    "stencil workload",
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		key, ok := want[e.Name()]
		if !ok {
			t.Errorf("examples/%s has no expected output line here", e.Name())
			continue
		}
		cmd := exec.Command(filepath.Join(bin, e.Name()))
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("examples/%s: %v\n%s", e.Name(), err, out)
		} else if !strings.Contains(string(out), key) {
			t.Errorf("examples/%s output missing %q:\n%s", e.Name(), key, out)
		}
	}
}
