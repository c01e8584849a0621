// Command bench is the repository's one performance ledger: six named
// workloads driven through the public functions of the internal packages,
// every output checked for correctness, every metric printed by name and
// unit. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench                         # all workloads, both passes → bench/out/
//	go run ./bench -workload live_shm_p8   # one workload
//	go run ./bench -short                  # smoke mode, ≈ 0.5 s per workload
//	go run ./bench -aa                     # whole set twice; fails if the two disagree
//	go run ./bench -compare old.json new.json
//
// The acceptance driver's form is
// `go run ./bench --workload W --seed N --seconds S --trace 0|1`, whose last
// stdout line is one JSON object: BENCHMARK.json's end_to_end metrics
// (--trace 0) or its per_layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runSeconds is the default length of the timed window, equal to
// BENCHMARK.json's run_seconds.
const runSeconds = 10

// Trace modes: which passes an invocation makes.
const (
	traceOff  = 0 // untraced pass only; the result line carries BENCHMARK.json's end_to_end metrics
	traceOn   = 1 // short untraced reference pass + traced pass; the result line carries its per_layer metrics
	traceBoth = 2 // full untraced pass + traced pass; reports everything
)

type options struct {
	seed    uint64
	seconds float64
	trace   int
	short   bool
	out     string // directory for result.json and the Chrome traces
}

// result is one workload's line of the ledger.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	PlanHash  string           `json:"plan_hash"`
	CertifyK1 string           `json:"certify_k1,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	tail      string           // tail percentile of the barrier period, for the report
}

// ledger is the on-disk form of one or more run sets with their environment.
type ledger struct {
	Env  map[string]any `json:"env"`
	Runs []*result      `json:"runs"`
}

// runWorkload makes the passes the trace mode asks for and assembles the
// workload's result.
func runWorkload(w *workload, o options) (*result, error) {
	if o.short {
		w = w.short()
	}
	untraced := &pass{w: w, seed: o.seed, seconds: o.seconds, setupReps: w.setupReps, rec: newRecorder()}
	if o.trace == traceOn {
		untraced.seconds, untraced.setupReps = o.seconds/3, 1
	}
	if err := untraced.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Workload: w.name, Seed: o.seed, PlanHash: untraced.planHash,
		Attempted: untraced.attempted, Failed: untraced.failed, Failures: untraced.failures,
		Metrics: map[string]value{},
	}
	put := func(rec *recorder, m metricDef) {
		v, n := rec.reduce(m.Name)
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit, N: n}
	}
	for _, m := range endToEnd {
		put(untraced.rec, m)
		res.check(res.Metrics[m.Name].Value != 0, "%s has no samples", m.Name)
	}
	if q, ok := tailPercentile(len(untraced.periods)); ok {
		res.tail = fmt.Sprintf("p%g %.2f us", 100*q, quantile(untraced.periods, q)*1e6)
	}
	if o.trace == traceOff {
		return res, nil
	}

	traced := &pass{w: w, seed: o.seed, seconds: o.seconds / 3, setupReps: 1, rec: newRecorder()}
	traced.lay = newLayers(traced.rec)
	if err := traced.run(); err != nil {
		return nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	if err := traced.lay.writeChromeTrace(filepath.Join(o.out, w.name+".trace.json")); err != nil {
		return nil, err
	}
	res.CertifyK1 = traced.certify
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Failures = append(res.Failures, traced.failures...)
	// Draw 0 is common to both passes.
	res.check(traced.hashes[0] == untraced.hashes[0], "traced pass tuned plan %s, untraced %s", traced.hashes[0], untraced.hashes[0])
	for _, m := range perLayer {
		if untracedLayer[m.Name] {
			put(untraced.rec, m)
		} else {
			put(traced.rec, m)
		}
	}
	// Tracing overhead on the metric the workload's timed window measures.
	loopMetric := "barrier_p50_us"
	if w.loop == loopCold {
		loopMetric = "cold_start_s"
	}
	off, _ := untraced.rec.reduce(loopMetric)
	on, n := traced.rec.reduce(loopMetric)
	if off > 0 {
		res.Metrics["telemetry.overhead_pct"] = value{Value: 100 * (on - off) / off, Unit: "%", N: n}
	}
	return res, nil
}

// check counts one cross-pass check of the assembled result.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, r.Workload+": "+fmt.Sprintf(format, args...))
	}
}

// failRatioOf is the tenth end-to-end number: failed over attempted.
func (r *result) failRatioOf() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// report prints the workload's metrics by name with unit and sample count.
func (r *result) report() {
	fmt.Printf("== %s  seed %d  pinned plan %s\n", r.Workload, r.Seed, r.PlanHash)
	line := func(m metricDef) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return
		}
		note := ""
		if m.Name == "barrier_p50_us" && r.tail != "" {
			note = "  tail " + r.tail
		}
		fmt.Printf("  %-30s %16.6g %-6s n=%d%s\n", m.Name, v.Value, v.Unit, v.N, note)
	}
	for _, m := range endToEnd {
		line(m)
	}
	fmt.Printf("  %-30s %16.6g %-6s failed=%d attempted=%d\n", failRatio, r.failRatioOf(), "ratio", r.Failed, r.Attempted)
	for _, m := range perLayer {
		line(m)
	}
	if r.CertifyK1 != "" {
		fmt.Printf("  analyze.CertifyK(k=1): %s\n", r.CertifyK1)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// resultLine is the acceptance driver's contract: the last line of stdout.
func (r *result) resultLine(trace int) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	add := func(defs []metricDef) {
		for _, m := range defs {
			out.Metrics[m.Name] = metric{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
		}
	}
	gate, layer := declared()
	if trace != traceOn {
		add(gate)
	}
	if trace != traceOff {
		add(layer)
	}
	line, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(line)
}

func environment(o options, commit string) map[string]any {
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH, "commit": commit,
		"seed": o.seed, "seconds": o.seconds, "short": o.short,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func writeLedger(path string, l *ledger) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	name := flag.String("workload", "", "run only this workload (default: all six)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: feeds the generated platform, fabric noise and search seeds (2 is the hold-out)")
	flag.Float64Var(&o.seconds, "seconds", 0, fmt.Sprintf("length of each workload's timed window (default %d; 0.4 with -short)", runSeconds))
	flag.IntVar(&o.trace, "trace", traceBoth, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; 2: both")
	flag.BoolVar(&o.short, "short", false, "smoke mode: same code paths and metric names at a fraction of the size")
	flag.StringVar(&o.out, "out", "bench/out", "directory for result.json and the Chrome traces")
	aa := flag.Bool("aa", false, "run the whole set twice and fail if any end-to-end metric disagrees beyond its own bound")
	cmp := flag.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	commit := flag.String("commit", "unknown", "commit id recorded in the ledger's environment")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if o.seconds == 0 {
		o.seconds = runSeconds
		if o.short {
			o.seconds = 0.4
		}
	}
	if o.trace < traceOff || o.trace > traceBoth || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0, 1 or 2 and -seconds positive")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// With -aa each workload runs twice back to back, so that the two sides
	// of the A/A comparison see the host in as similar a state as possible.
	sides := []*ledger{{}}
	if *aa {
		sides = append(sides, &ledger{})
	}
	l := &ledger{Env: environment(o, *commit)}
	failed := 0
	for _, w := range selected {
		for _, side := range sides {
			res, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			res.report()
			failed += res.Failed
			side.Runs = append(side.Runs, res)
			l.Runs = append(l.Runs, res)
		}
	}
	if err := writeLedger(filepath.Join(o.out, "result.json"), l); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	if *aa && printComparison(compareLedgers(sides[0], sides[1], true)) {
		code = 1
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d operations or checks failed\n", failed)
		code = 1
	}
	if len(selected) == 1 && !*aa {
		fmt.Println(l.Runs[0].resultLine(o.trace))
	}
	return code
}
