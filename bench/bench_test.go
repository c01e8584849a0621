package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // p90 would leave 9.9 samples beyond it
		{100, 0.90, true},
		{999, 0.90, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{10000000, 0.9999, true}, // highest candidate
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSegMedian(t *testing.T) {
	// A burst covering four of ten segments cannot move the result.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
		if i >= 20 && i < 60 {
			xs[i] = 50
		}
	}
	if got := segMedian(xs); got != 1 {
		t.Errorf("40%% burst moved the segment median to %g", got)
	}
	// The plain median of the same series is already 1 too, but a burst that
	// spoils a minority of every segment must not matter either.
	for i := range xs {
		xs[i] = 1
		if i%10 < 4 {
			xs[i] = 50
		}
	}
	if got := segMedian(xs); got != 1 {
		t.Errorf("spread burst moved the segment median to %g", got)
	}
	// Samples beyond the last equal cut are dropped: 25 samples → 10 cuts of 2.
	ys := make([]float64, 25)
	for i := range ys {
		ys[i] = 2
	}
	ys[20], ys[21], ys[22], ys[23], ys[24] = 9, 9, 9, 9, 9
	if got := segMedian(ys); got != 2 {
		t.Errorf("remainder samples were not dropped: %g", got)
	}
	// Fewer samples than segments: the plain median.
	if got := segMedian([]float64{3, 1, 2}); got != 2 {
		t.Errorf("short series: %g, want 2", got)
	}
	if got := segMedian(nil); got != 0 {
		t.Errorf("empty series: %g, want 0", got)
	}
}

// Values from Python 3: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	use(failRatio)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range untracedLayer {
		if !seen[name] {
			t.Errorf("untracedLayer names unknown metric %q", name)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness default %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, harness {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	public := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, m := range defs {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	gate, layer := declared()
	for i := range layer {
		layer[i].Bound = 0 // per_layer entries carry no bound
	}
	if !reflect.DeepEqual(b.EndToEnd, public(gate)) {
		t.Errorf("end_to_end differs:\ndeclared %+v\nharness  %+v", b.EndToEnd, public(gate))
	}
	if !reflect.DeepEqual(b.PerLayer, public(layer)) {
		t.Errorf("per_layer differs:\ndeclared %+v\nharness  %+v", b.PerLayer, public(layer))
	}
}

func names(defs ...[]metricDef) []string {
	var out []string
	for _, d := range defs {
		for _, m := range d {
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestShortRunEmitsTheDeclaredNames drives every workload through both
// passes in smoke mode: no check may fail, the metric names emitted must be
// exactly the declared ones, and the traced pass must leave a Chrome trace.
func TestShortRunEmitsTheDeclaredNames(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		res, err := runWorkload(w, options{seed: 1, seconds: 0.3, trace: traceBoth, short: true, out: out})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if got, want := keys(res.Metrics), names(endToEnd, perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted names %v, declared %v", w.name, got, want)
		}
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		gate, layer := declared()
		for mode, want := range map[int][]string{traceOff: names(gate), traceOn: names(layer)} {
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.resultLine(mode)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if got := keys(line.Metrics); !reflect.DeepEqual(got, want) || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s: -trace %d result line has names %v (correct=%v), want %v", w.name, mode, got, line.Correct, want)
			}
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		data, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err == nil {
			err = json.Unmarshal(data, &trace)
		}
		if err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace: %d events, err %v", w.name, len(trace.TraceEvents), err)
		}
	}
}

func TestPinnedPlanHashIsStableAcrossBuilds(t *testing.T) {
	build := func(name string) string {
		p := &pass{w: workloadByName(name), seed: 7, rec: newRecorder(), hashes: make([]string, 1)}
		pin, err := p.pin(0)
		if err != nil || p.failed != 0 {
			t.Fatalf("%s: %v, failures %v", name, err, p.failures)
		}
		return pin.hash()
	}
	first := build("live_tcp_p8")
	if second := build("live_tcp_p8"); first != second || first == "" {
		t.Errorf("two in-process builds of the pinned plan hash to %q and %q", first, second)
	}
	// Both live workloads pin the same plan: same platform, profile and seed.
	if shm := build("live_shm_p8"); shm != first {
		t.Errorf("live_shm_p8 pins plan %s, live_tcp_p8 %s", shm, first)
	}
}

// synth builds a ledger with one workload's runs of one metric.
func synth(seed uint64, metric string, values ...float64) *ledger {
	l := &ledger{}
	for _, v := range values {
		l.Runs = append(l.Runs, &result{
			Workload: "live_tcp_p8", Seed: seed, PlanHash: "abc",
			Metrics: map[string]value{metric: {Value: v}},
		})
	}
	return l
}

func verdictOf(t *testing.T, rows []row, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.metric == metric {
			return r.verdict
		}
	}
	t.Fatalf("no row for %s in %+v", metric, rows)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name     string
		metric   string
		old, new []float64
		seeds    [2]uint64
		sym      bool
		want     string
	}{
		{"within bound", "barrier_p50_us", tight, scale(tight, 1.05), [2]uint64{1, 1}, false, verdictOK},
		{"slower beyond bound", "barrier_p50_us", tight, scale(tight, 1.30), [2]uint64{1, 1}, false, verdictRegression},
		{"faster is not a regression", "barrier_p50_us", tight, scale(tight, 0.6), [2]uint64{1, 1}, false, verdictOK},
		{"faster disagrees in an A/A run", "barrier_p50_us", tight, scale(tight, 0.6), [2]uint64{1, 1}, true, verdictRegression},
		{"higher is better", "barriers_per_s", tight, scale(tight, 0.70), [2]uint64{1, 1}, false, verdictRegression},
		{"higher is better, gain", "barriers_per_s", tight, scale(tight, 1.5), [2]uint64{1, 1}, false, verdictOK},
		{"spread wider than bound", "barrier_p50_us", wide, scale(wide, 1.02), [2]uint64{1, 1}, false, verdictUnresolved},
		{"wide but every run better", "barrier_p50_us", wide, scale(wide, 0.3), [2]uint64{1, 1}, false, verdictOK},
		{"exact metric, one seed", "tuned_cost_us", []float64{24.2}, []float64{24.3}, [2]uint64{1, 1}, false, verdictRegression},
		{"exact metric, other seed", "tuned_cost_us", []float64{24.2}, []float64{24.3}, [2]uint64{1, 2}, false, verdictOK},
	} {
		rows := compareLedgers(synth(tc.seeds[0], tc.metric, tc.old...), synth(tc.seeds[1], tc.metric, tc.new...), tc.sym)
		if got := verdictOf(t, rows, tc.metric); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// One seed: a changed pinned plan or a failed operation is a regression
	// whatever the timings say.
	old, cur := synth(1, "barrier_p50_us", 100), synth(1, "barrier_p50_us", 100)
	cur.Runs[0].PlanHash = "def"
	if got := verdictOf(t, compareLedgers(old, cur, false), "pinned-plan hash"); got != verdictRegression {
		t.Errorf("changed plan hash: verdict %q", got)
	}
	cur = synth(1, "barrier_p50_us", 100)
	cur.Runs[0].Failed = 1
	if got := verdictOf(t, compareLedgers(old, cur, false), "failed operations"); got != verdictRegression {
		t.Errorf("failed operation: verdict %q", got)
	}
	if printComparison(compareLedgers(old, old, true)) {
		t.Error("a ledger disagrees with itself")
	}
}
