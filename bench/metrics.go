package main

// metricDef declares one metric of the ledger. The two tables below are the
// harness's side of BENCHMARK.json (a self-test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	// exact marks seeded virtual-time or pure-function outputs: two runs of
	// one seed must agree to exactBound, whatever Bound allows across seeds.
	exact bool
	// ungated marks an end-to-end metric too unsteady on the reference VM for
	// an automatic gate. ISSUE 11's rule is to demote such a metric rather
	// than loosen its bound: BENCHMARK.json declares it under per_layer (no
	// bound), a traced invocation reports it from its untraced pass, and the
	// harness's own -compare and -aa still judge it against Bound.
	ungated bool
}

// exactBound is the tolerance -compare and -aa apply to exact metrics when
// both sides ran the same seed.
const exactBound = 0.001

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, measured on its own platform and executor (see
// README.md, "End-to-end metrics"). Bound is the share of the parent's median
// by which a metric may worsen before a change counts as a regression.
//
// The four wall-clock metrics are ungated: the reference VM's speed switches
// by about 30 % between regimes that last minutes (every goroutine hand-off
// slows, a register-only spin loop does not), so ten runs that straddle a
// switch spread by 25-37 % whatever the in-run statistic.
var endToEnd = []metricDef{
	{Name: "barrier_p50_us", Unit: "us", Better: "lower", Bound: 0.25, ungated: true},
	{Name: "barriers_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, ungated: true},
	{Name: "cold_start_s", Unit: "s", Better: "lower", Bound: 0.25, ungated: true},
	{Name: "tune_s", Unit: "s", Better: "lower", Bound: 0.25, ungated: true},
	{Name: "tuned_cost_us", Unit: "us", Better: "lower", Bound: 0.10, exact: true},
	{Name: "sim_barrier_us", Unit: "us", Better: "lower", Bound: 0.10, exact: true},
	{Name: "speedup_vs_mpi", Unit: "ratio", Better: "higher", Bound: 0.10, exact: true},
	{Name: "model_err_pct", Unit: "%", Better: "lower", Bound: 0.10, exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// declared splits the metric tables the way BENCHMARK.json declares them:
// the gated end-to-end metrics, and the per-layer list with the ungated
// end-to-end metrics in front.
func declared() (gate, layer []metricDef) {
	for _, m := range endToEnd {
		if m.ungated {
			layer = append(layer, m)
		} else {
			gate = append(gate, m)
		}
	}
	return gate, append(layer, perLayer...)
}

// failRatio is the tenth end-to-end number. It must be 0, so it cannot carry
// a relative bound and travels as failed/attempted in the result line instead
// of sitting in BENCHMARK.json's end_to_end list.
const failRatio = "fail_ratio"

// perLayer lists the single-layer metrics, all taken by a traced invocation.
// A metric whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// netmpi, hot path
	{Name: "netmpi.send_ns", Unit: "ns", Better: "lower"},
	{Name: "netmpi.pingpong_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.send_span_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.recv_wait_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.stage_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.barrier_p99_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.allocs_per_barrier", Unit: "count", Better: "lower"},
	{Name: "netmpi.frames_per_barrier", Unit: "count", Better: "lower"},
	// netmpi, other executors of the same plan
	{Name: "netmpi.resilient_p50_us", Unit: "us", Better: "lower"},
	{Name: "netmpi.epoch_p50_us", Unit: "us", Better: "lower"},
	// netmpi, bring-up
	{Name: "netmpi.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "netmpi.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "netmpi.probe_samples", Unit: "count", Better: "lower"},
	{Name: "netmpi.vetplan_ms", Unit: "ms", Better: "lower"},
	{Name: "netmpi.epoch_install_ms", Unit: "ms", Better: "lower"},
	{Name: "netmpi.first_barrier_us", Unit: "us", Better: "lower"},
	// telemetry, critpath
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.spans_per_barrier", Unit: "count", Better: "lower"},
	{Name: "telemetry.dropped_spans", Unit: "count", Better: "lower"},
	{Name: "critpath.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "critpath.model_gap_pct", Unit: "%", Better: "lower"},
	// sss, compose
	{Name: "sss.tree_ms", Unit: "ms", Better: "lower"},
	{Name: "sss.leaves", Unit: "count", Better: "lower"},
	{Name: "compose.hybrid_ms", Unit: "ms", Better: "lower"},
	{Name: "compose.choices", Unit: "count", Better: "lower"},
	// search
	{Name: "search.anneal_ms", Unit: "ms", Better: "lower"},
	{Name: "search.examined", Unit: "count", Better: "higher"},
	{Name: "search.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.tt_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.gain_pct", Unit: "%", Better: "higher"},
	// sched, predict
	{Name: "sched.isbarrier_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.stages", Unit: "count", Better: "lower"},
	{Name: "sched.signals", Unit: "count", Better: "lower"},
	{Name: "predict.cost_us_per_call", Unit: "us", Better: "lower"},
	// analyze
	{Name: "analyze.vet_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.certify_k1_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.checkplan_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.findings", Unit: "count", Better: "lower"},
	// run, codegen
	{Name: "run.newplan_ms", Unit: "ms", Better: "lower"},
	{Name: "run.plan_ops", Unit: "count", Better: "lower"},
	{Name: "run.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.bytes", Unit: "count", Better: "lower"},
	// fabric, probe, mpi, baseline, model fidelity per algorithm
	{Name: "fabric.trueprofile_ms", Unit: "ms", Better: "lower"},
	{Name: "probe.measure_s", Unit: "s", Better: "lower"},
	{Name: "probe.pairs", Unit: "count", Better: "lower"},
	{Name: "probe.profile_err_pct", Unit: "%", Better: "lower"},
	{Name: "mpi.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.sim_barriers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "baseline.tree_sim_us", Unit: "us", Better: "lower"},
	{Name: "predict.err_linear_pct", Unit: "%", Better: "lower"},
	{Name: "predict.err_dissemination_pct", Unit: "%", Better: "lower"},
	{Name: "predict.err_tree_pct", Unit: "%", Better: "lower"},
	{Name: "predict.err_tuned_pct", Unit: "%", Better: "lower"},
	// core, process
	{Name: "core.tune_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.tune_mallocs", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// untracedLayer names the per-layer metrics that tracing itself would
// distort; a traced invocation reads them from its untraced pass.
var untracedLayer = map[string]bool{
	"netmpi.barrier_p99_us":     true,
	"netmpi.allocs_per_barrier": true,
	"core.tune_alloc_mb":        true,
	"core.tune_mallocs":         true,
}

// value is one reported number: the reduction of N underlying samples.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// recorder accumulates the ordered samples of every metric during one pass.
type recorder struct {
	vals map[string][]float64
	n    map[string]int
}

func newRecorder() *recorder {
	return &recorder{vals: map[string][]float64{}, n: map[string]int{}}
}

// add records one sample.
func (r *recorder) add(name string, v float64) { r.addN(name, v, 1) }

// addN records one sample that already reduces n underlying observations
// (a segment median).
func (r *recorder) addN(name string, v float64, n int) {
	r.vals[name] = append(r.vals[name], v)
	r.n[name] += n
}

// reduce returns the median over segments of the per-segment medians of a
// metric's samples, with the number of observations behind it.
func (r *recorder) reduce(name string) (float64, int) {
	return segMedian(r.vals[name]), r.n[name]
}
