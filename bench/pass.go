package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/baseline"
	"topobarrier/internal/codegen"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// validateDelay is the virtual lateness run.Validate injects (§VI): far
// above any barrier's simulated cost.
const validateDelay = 1e-3

// pass is one execution of a workload, untraced (lay == nil) or traced. It
// gathers metric samples in rec and counts every operation and check it
// attempts; a failed one makes the whole invocation exit non-zero.
type pass struct {
	w         *workload
	seed      uint64
	seconds   float64 // length of the timed window
	setupReps int
	rec       *recorder
	lay       *layers

	attempted int
	failed    int
	failures  []string

	// hashes[k] is the plan hash of tuner draw k (see drawSeed); every
	// rebuild of a draw must reproduce it. planHash is the pinned plan's.
	hashes      []string
	planHash    string
	certify     string    // analyze.CertifyK(k=1) verdict on the pinned plan
	periods     []float64 // every barrier period of the loop, for the tail
	barriers    int       // barriers the loop's segments ran, and
	barrierTime float64   // the wall time they took
	memTuned    bool      // the one MemStats-bracketed tune has been taken
}

// check counts one attempted operation and records its failure, if any.
func (p *pass) check(err error, what string) bool {
	p.attempted++
	if err == nil {
		return true
	}
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf("%s: %s: %v", p.w.name, what, err))
	}
	return false
}

func failIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// pinned is the workload's platform brought from nothing to a verified plan
// on the simulator: fabric → profile → tune → delay-injection validation.
// Everything in it is a pure function of the seed.
type pinned struct {
	world  *mpi.World
	pf     *profile.Profile // the platform's profile: what the plan is priced on
	tunePf *profile.Profile // what the tuner saw; pf unless the workload tunes on the nominal profile
	*tuned
}

// executor runs the pinned plan: a live mesh in wall-clock time, or the
// simulator (whose wall-clock cost per simulated barrier is what its
// barrier_p50_us reports).
type executor interface {
	// barriers executes n back-to-back barriers and returns the wall-clock
	// periods observed, in seconds.
	barriers(n int) ([]float64, error)
	// use switches the executor to another plan for the same ranks.
	use(pl *run.Plan)
	close()
}

type liveExec struct {
	m  *mesh
	pl *run.Plan
}

func (e *liveExec) barriers(n int) ([]float64, error) { return e.m.periods(n, e.m.barrier(e.pl)) }
func (e *liveExec) use(pl *run.Plan)                  { e.pl = pl }
func (e *liveExec) close()                            { e.m.close() }

type simExec struct {
	world *mpi.World
	pl    *run.Plan
}

func (e *simExec) barriers(n int) ([]float64, error) {
	t0 := time.Now()
	_, err := run.Measure(e.world, e.pl.Func(), 0, n)
	return []float64{time.Since(t0).Seconds() / float64(n)}, err
}
func (e *simExec) use(pl *run.Plan) { e.pl = pl }
func (e *simExec) close()           {}

// run executes the pass: set-up, the timed window, the fixed-size phases
// that give the remaining end-to-end metrics, the simulator quality check,
// and (traced) the single-layer probes. An error means the pass could not go
// on; counted failures do not stop it.
func (p *pass) run() error {
	w := p.w
	p.hashes = make([]string, p.setupReps)
	var pin *pinned // the cheapest draw so far
	var ex executor
	var warmRate float64 // barriers per second seen by the last warm-up
	defer func() {
		if ex != nil {
			ex.close()
		}
	}()
	for k := 0; k < p.setupReps; k++ {
		if ex != nil {
			ex.close()
			ex = nil
		}
		t0 := time.Now()
		draw, err := p.pin(k)
		if err != nil {
			return err
		}
		if w.live == nil {
			p.rec.add("cold_start_s", time.Since(t0).Seconds()) // on the simulator, pin is the cold start
		}
		if ex, err = p.open(draw); err != nil {
			return err
		}
		warm := time.Now()
		if _, err := ex.barriers(w.warmup); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		warmRate = float64(w.warmup) / time.Since(warm).Seconds()
		p.rec.add("setup_s", time.Since(t0).Seconds())
		if pin == nil || draw.cost < pin.cost {
			pin = draw
		}
	}
	ex.use(pin.plan)
	p.planHash = pin.hash()

	live, _ := ex.(*liveExec)
	if live != nil {
		for d := 0; d < w.p; d++ {
			p.check(live.m.checkDelayedRank(pin.plan, d), "delayed-rank check")
		}
	}

	// The timed window is cut into `segments` rounds. A round spends its
	// slice of the window on the workload's main operation — barrier segments
	// or cold starts — and then a tenth of each fixed-size phase, so every
	// metric samples the whole run, not one burst at its end (the host's
	// speed wanders on a scale of seconds).
	slice := p.seconds / segments
	segLen := w.segLen
	if w.loop == loopBarrier {
		segLen = max(2, int(warmRate*slice/2)) // about two segments per round
	}
	perRound := func(total int) int { return (total + segments - 1) / segments }
	colds, tunes, mainTime := 0, 0, 0.0
	for r := 1; r <= segments; r++ {
		for mainTime < float64(r)*slice {
			t0 := time.Now()
			if w.loop == loopBarrier {
				p.barrierSegment(ex, segLen)
			} else {
				p.coldStart(colds)
				colds++
			}
			mainTime += time.Since(t0).Seconds()
		}
		if w.loop == loopBarrier {
			for i := 0; i < perRound(w.coldReps); i++ {
				p.coldStart(colds)
				colds++
			}
		} else {
			p.barrierSegment(ex, segLen)
		}
		for i := 0; i < perRound(w.tuneReps); i++ {
			p.tune(pin.tunePf, tunes, true)
			tunes++
		}
	}
	if p.barriers > 0 {
		p.rec.addN("barriers_per_s", float64(p.barriers)/p.barrierTime, p.barriers)
	}
	if q, ok := tailPercentile(len(p.periods)); ok && live != nil {
		p.rec.addN("netmpi.barrier_p99_us", quantile(p.periods, min(q, 0.99))*1e6, len(p.periods))
	}
	p.quality(pin)
	p.rec.add("proc.peak_rss_mb", peakRSSMB())
	if p.lay != nil {
		p.layerProbes(pin)
		if live != nil {
			p.meshProbes(pin, live.m)
		}
	}
	return nil
}

// drawSeeds is the stride between the tuner seeds of consecutive workload
// seeds; a pass uses at most this many draws.
const drawSeeds = 16

// drawSeed derives the tuner's seed for repetition i. A pass tunes with
// setupReps distinct seeds, in rotation, and pins the cheapest plan among
// them: local search lands in one of several optima depending on its seed,
// and the best of a few draws is far steadier than any single one.
func (p *pass) drawSeed(i int) (k int, seed uint64) {
	k = i % len(p.hashes)
	if p.w.nominalTune {
		return k, uint64(k)
	}
	return k, p.seed*drawSeeds + uint64(k)
}

// pin builds the pinned plan from nothing. On the simulator this is the cold
// start itself; live workloads use it for their set-up and quality numbers.
func (p *pass) pin(i int) (*pinned, error) {
	w, lay := p.w, p.lay
	fab, err := w.fabric(p.seed)
	if err != nil {
		return nil, err
	}
	world := mpi.NewWorld(fab)
	var pf *profile.Profile
	if w.probeSim {
		lay.time("probe.measure_s", func() { pf, err = probe.Measure(world, probe.Default()) })
		if !p.check(err, "probe.Measure") {
			return nil, err
		}
	} else {
		lay.time("fabric.trueprofile_ms", func() { pf = fab.TrueProfile() })
	}
	tunePf := pf
	if w.nominalTune {
		if tunePf, err = w.nominalProfile(); err != nil {
			return nil, err
		}
	}
	t, err := p.tune(tunePf, i, true)
	if err != nil {
		return nil, err
	}
	if w.nominalTune {
		t.cost = predict.New(pf).Cost(t.sched)
	}
	lay.time("run.validate_ms", func() { err = run.Validate(world, t.plan.Func(), validateDelay, w.delayRanks()) })
	p.check(err, "run.Validate")
	return &pinned{world: world, pf: pf, tunePf: tunePf, tuned: t}, nil
}

// delayRanks spreads validateRanks delayed ranks over 0..P-1; nil means all.
func (w *workload) delayRanks() []int {
	if w.validateRanks == 0 {
		return nil
	}
	ranks := make([]int, w.validateRanks)
	for i := range ranks {
		ranks[i] = i * (w.p - 1) / max(1, w.validateRanks-1)
	}
	return ranks
}

func (p *pass) meshOptions() []netmpi.Option {
	return []netmpi.Option{netmpi.WithTracer(p.lay.mesh()), netmpi.WithTelemetry(p.lay.registry())}
}

func (p *pass) open(pin *pinned) (executor, error) {
	if p.w.live == nil {
		return &simExec{world: pin.world, pl: pin.plan}, nil
	}
	m, err := p.w.dial(p.meshOptions()...)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &liveExec{m: m, pl: pin.plan}, nil
}

// tune times one tuner call, repetition i's draw, and gates its output on
// Eq. 3. fromPlatform says the profile is the platform's own (not a live
// probe), which makes the plan a pure function of the draw: it must then
// hash the same every time. The first call of a pass is additionally
// bracketed by MemStats reads, off the clock.
func (p *pass) tune(pf *profile.Profile, i int, fromPlatform bool) (*tuned, error) {
	k, seed := p.drawSeed(i)
	var before runtime.MemStats
	if !p.memTuned {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	t, err := p.w.tune(pf, seed, p.lay)
	d := time.Since(t0)
	if !p.check(err, "tune") {
		return nil, err
	}
	if !p.memTuned {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.rec.add("core.tune_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		p.rec.add("core.tune_mallocs", float64(after.Mallocs-before.Mallocs))
		p.memTuned = true
	}
	t.seed = seed
	p.rec.add("tune_s", d.Seconds())
	p.check(failIf(!t.sched.IsBarrier(), "tuned schedule %q fails Eq. 3", t.sched.Name), "IsBarrier")
	if fromPlatform {
		h := t.hash()
		if p.hashes[k] == "" {
			p.hashes[k] = h
		}
		p.check(failIf(h != p.hashes[k], "draw %d hashed %s, now %s", k, p.hashes[k], h), "pinned-plan hash")
	}
	return t, nil
}

// barrierSegment runs one segment of segLen barriers on the warm executor:
// barrier_p50_us takes the segment's median period, and barriers_per_s adds
// its count and wall time.
func (p *pass) barrierSegment(ex executor, segLen int) {
	_, live := ex.(*liveExec)
	var before runtime.MemStats
	sampled := live && p.barriers == 0 // any one segment will do; the first always exists
	if sampled {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	periods, err := ex.barriers(segLen)
	wall := time.Since(t0).Seconds()
	if !p.check(err, "barrier segment") {
		return
	}
	if sampled {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.rec.add("netmpi.allocs_per_barrier", float64(after.Mallocs-before.Mallocs)/float64(segLen))
	}
	p.attempted += segLen - 1 // check counted the segment once
	p.rec.addN("barrier_p50_us", median(periods)*1e6, len(periods))
	p.periods = append(p.periods, periods...)
	p.barriers += segLen
	p.barrierTime += wall
}

// coldStart runs cold start number i on the workload's executor kind and
// records its wall time up to the first barrier's return.
func (p *pass) coldStart(i int) {
	if p.w.live != nil {
		p.liveStart(i)
		return
	}
	t0 := time.Now()
	if _, err := p.pin(i); err == nil {
		p.rec.add("cold_start_s", time.Since(t0).Seconds())
	}
}

// liveStart is a cold start over the network: dial the mesh, take a profile
// (live probe or the platform oracle), tune, vet, install the plan as epoch
// 0 on every rank, run the first barrier.
func (p *pass) liveStart(i int) {
	w, lay := p.w, p.lay
	t0 := time.Now()
	var m *mesh
	var err error
	lay.time("netmpi.dial_ms", func() { m, err = w.dial(p.meshOptions()...) })
	if !p.check(err, "dial") {
		return
	}
	defer m.close()
	var pf *profile.Profile
	if w.live.probe {
		if pf, err = p.liveProbe(m); err != nil {
			return
		}
	} else {
		var fab *fabric.Fabric
		if fab, err = w.fabric(p.seed); !p.check(err, "fabric") {
			return
		}
		pf = fab.TrueProfile()
	}
	t, err := p.tune(pf, i, !w.live.probe)
	if err != nil {
		return
	}
	var plan *run.Plan
	lay.time("netmpi.vetplan_ms", func() { plan, _, err = netmpi.VetPlan(t.sched, analyze.Options{}) })
	if !p.check(err, "netmpi.VetPlan") {
		return
	}
	runners := make([]*netmpi.EpochRunner, w.p)
	lay.time("netmpi.epoch_install_ms", func() {
		var eps *netmpi.Epochs
		if eps, err = netmpi.NewEpochs(plan); err != nil {
			return
		}
		for r := range runners {
			if runners[r], err = netmpi.NewEpochRunner(m.peers[r], eps, 0); err != nil {
				return
			}
		}
	})
	if !p.check(err, "epoch install") {
		return
	}
	lay.time("netmpi.first_barrier_us", func() {
		_, err = m.collective(1, func(r, _ int) error { return runners[r].Barrier(recvDeadline) })
	})
	if !p.check(err, "first barrier") {
		return
	}
	p.rec.add("cold_start_s", time.Since(t0).Seconds())

	// Off the clock: the plan a cold start installed must also pass the
	// simulator's delay-injection check.
	fab, err := w.fabric(p.seed)
	if p.check(err, "fabric") {
		p.check(run.Validate(mpi.NewWorld(fab), t.plan.Func(), validateDelay, w.delayRanks()), "run.Validate of cold-start plan")
	}
}

// liveProbe profiles the mesh with the cold-start probe budget.
func (p *pass) liveProbe(m *mesh) (*profile.Profile, error) {
	var pf *profile.Profile
	var rep *netmpi.ProbeReport
	var err error
	p.lay.time("netmpi.probe_ms", func() {
		pf, rep, err = netmpi.ProbeProfileOpts(m.peers, netmpi.ProbeOptions{
			MaxIters: 8, StableK: 3, Tracer: p.lay.tracer(), Registry: p.lay.registry(),
		})
	})
	if !p.check(err, "live probe") {
		return nil, err
	}
	p.lay.count("netmpi.probe_samples", float64(rep.TotalSamples()))
	return pf, nil
}

// simQuality holds the seeded virtual-time outputs of one quality run. Two
// runs of one seed must be equal field for field.
type simQuality struct {
	tuned, mpiTree         float64    // simulated seconds per barrier
	errs                   [4]float64 // |predicted − simulated| / simulated: linear, dissemination, tree, tuned
	measureWall, simPerSec float64    // wall-clock cost of the tuned measurement (not compared)
}

func (q simQuality) exact() simQuality {
	q.measureWall, q.simPerSec = 0, 0
	return q
}

var errNames = [4]string{"linear", "dissemination", "tree", "tuned"}

// simulate measures the pinned plan, the binomial-tree MPI_Barrier stand-in
// and the three generic algorithms on a fresh seeded world, and the model's
// error against each.
func (p *pass) simulate(pin *pinned) (simQuality, error) {
	var q simQuality
	fab, err := p.w.fabric(p.seed)
	if err != nil {
		return q, err
	}
	world := mpi.NewWorld(fab)
	iters := p.w.simIters
	measure := func(fn run.Func) (float64, error) {
		m, err := run.Measure(world, fn, max(1, iters/20), iters)
		return m.Mean, err
	}
	t0 := time.Now()
	if q.tuned, err = measure(pin.plan.Func()); err != nil {
		return q, err
	}
	q.measureWall = time.Since(t0).Seconds()
	q.simPerSec = float64(iters+max(1, iters/20)) / q.measureWall
	if q.mpiTree, err = measure(baseline.Tree); err != nil {
		return q, err
	}
	pd := predict.New(pin.pf)
	generic := []*sched.Schedule{sched.Linear(p.w.p), sched.Dissemination(p.w.p), sched.Tree(p.w.p)}
	for i, s := range generic {
		// Compiled, like the pinned plan: the stage-matrix interpreter scans
		// P² entries per stage, which at P=1024 would dominate the measurement.
		pl, err := run.NewPlan(s)
		if err != nil {
			return q, err
		}
		sim, err := measure(pl.Func())
		if err != nil {
			return q, err
		}
		q.errs[i] = math.Abs(pd.Cost(s)-sim) / sim
	}
	q.errs[3] = math.Abs(pin.cost-q.tuned) / q.tuned
	return q, nil
}

// quality reports the plan-quality and model-fidelity numbers. They come
// from seeded virtual time, so the simulation runs twice and any difference
// is a failure.
func (p *pass) quality(pin *pinned) {
	q, err := p.simulate(pin)
	if !p.check(err, "simulator measurement") {
		return
	}
	again, err := p.simulate(pin)
	if p.check(err, "simulator measurement") {
		p.check(failIf(q.exact() != again.exact(), "first %+v, second %+v", q.exact(), again.exact()), "exact metrics repeat")
	}
	p.rec.add("tuned_cost_us", pin.cost*1e6)
	p.rec.add("sim_barrier_us", q.tuned*1e6)
	p.rec.add("speedup_vs_mpi", q.mpiTree/q.tuned)
	sum := 0.0
	for i, e := range q.errs {
		sum += e
		p.lay.count("predict.err_"+errNames[i]+"_pct", 100*e)
	}
	p.rec.add("model_err_pct", 100*sum/float64(len(q.errs)))
	p.lay.count("baseline.tree_sim_us", q.mpiTree*1e6)
	p.lay.count("mpi.measure_ms", q.measureWall*1e3)
	p.lay.count("mpi.sim_barriers_per_s", q.simPerSec)
}

// layerProbes takes the single-layer numbers every workload has: the tuning
// pipeline replayed call by call, the one-shot analyses of the pinned plan,
// and the probe's fidelity.
func (p *pass) layerProbes(pin *pinned) {
	w, lay := p.w, p.lay
	if w.hybrid {
		// The anneal-from-tree tuner already is the call-by-call pipeline.
		t, err := w.pipeline(pin.tunePf, pin.seed, lay)
		if p.check(err, "pipeline replay") {
			p.check(failIf(!t.sched.Equal(pin.sched), "replayed %s, core.Tune %s", t.hash(), pin.hash()), "replay matches core.Tune")
		}
	}
	if cands := lay.counter("search_candidates_total"); cands > 0 {
		lay.count("search.accept_ratio", lay.counter("search_accepts_total")/cands)
		lay.count("search.tt_hit_ratio", lay.counter("search_tt_hits_total")/cands)
	}

	var src []byte
	var err error
	lay.time("codegen.generate_ms", func() { src, err = codegen.Generate(pin.sched, codegen.Options{}) })
	if p.check(err, "codegen.Generate") {
		lay.count("codegen.bytes", float64(len(src)))
	}
	var res *analyze.Resilience
	lay.time("analyze.certify_k1_ms", func() { res = analyze.CertifyK(pin.sched, 1, analyze.ResilienceOptions{}) })
	p.certify = fmt.Sprintf("certified=%v counterexample=%v", res.Certified, res.Counterexample)
	lay.time("sched.isbarrier_ms", func() { err = failIf(!pin.sched.IsBarrier(), "pinned plan fails Eq. 3") })
	p.check(err, "IsBarrier")
	lay.count("sched.stages", float64(pin.sched.NumStages()))
	lay.count("sched.signals", float64(pin.sched.SignalCount()))
	ops := 0
	for r := 0; r < w.p; r++ {
		for _, st := range pin.plan.RankOps(r) {
			ops += len(st.Sends) + len(st.Recvs)
		}
	}
	lay.count("run.plan_ops", float64(ops))

	pd := predict.New(pin.pf)
	calls := max(1, 20000/w.p)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		pd.Cost(pin.sched)
	}
	lay.count("predict.cost_us_per_call", time.Since(t0).Seconds()*1e6/float64(calls))

	if w.probeSim {
		fab, err := w.fabric(p.seed)
		if !p.check(err, "fabric") {
			return
		}
		var truth *profile.Profile
		lay.time("fabric.trueprofile_ms", func() { truth = fab.TrueProfile() })
		lay.count("probe.pairs", float64(w.p*(w.p-1)/2))
		lay.count("probe.profile_err_pct", 100*profileErr(pin.pf, truth))
	}
}

// profileErr is the mean relative error of a probed profile's off-diagonal
// O and L entries against the oracle's.
func profileErr(got, truth *profile.Profile) float64 {
	sum, n := 0.0, 0
	for i := 0; i < truth.P; i++ {
		for j := 0; j < truth.P; j++ {
			if i == j {
				continue
			}
			sum += math.Abs(got.O.At(i, j)-truth.O.At(i, j)) / truth.O.At(i, j)
			sum += math.Abs(got.L.At(i, j)-truth.L.At(i, j)) / truth.L.At(i, j)
			n += 2
		}
	}
	return sum / float64(n)
}

// meshProbes takes the netmpi, telemetry and critpath numbers on the warm,
// traced mesh: link microbenchmarks, one clean window of barriers merged into
// a cross-rank timeline, and the plan's other two executors.
func (p *pass) meshProbes(pin *pinned, m *mesh) {
	w, lay := p.w, p.lay
	n := w.warmup // sized to the mesh's speed, like the warm-up

	rtt, send, err := m.pingPong(2 * n)
	if p.check(err, "ping-pong") {
		lay.count("netmpi.pingpong_rtt_us", rtt*1e6)
		lay.count("netmpi.send_ns", send*1e9)
	}

	// One window of n barriers, alone in the span ring.
	signals := float64(pin.sched.SignalCount())
	lay.ring.Reset()
	dropped := lay.ring.Dropped()
	frames := lay.counter("netmpi_send_frames_total")
	_, err = m.collective(n, m.barrier(pin.plan))
	if !p.check(err, "traced window") {
		return
	}
	perBarrier := (lay.counter("netmpi_send_frames_total") - frames) / float64(n)
	lay.count("netmpi.frames_per_barrier", perBarrier)
	p.check(failIf(perBarrier != signals, "%g frames per barrier, plan has %g signals", perBarrier, signals), "frame count")
	evs := lay.ring.Take()
	lay.count("telemetry.spans_per_barrier", (float64(len(evs))+float64(lay.ring.Dropped()-dropped))/float64(n))
	for metric, prefix := range map[string]string{
		"netmpi.send_span_us": "barrier.send:", "netmpi.recv_wait_us": "barrier.recv:", "netmpi.stage_us": "barrier.stage:",
	} {
		us, _ := spanMedianUS(evs, prefix)
		lay.count(metric, us)
	}

	// Realized critical path of the window's sampled barrier against the model,
	// priced from a live profile of this very mesh.
	if pf, err := p.liveProbe(m); err == nil {
		var tl *critpath.Timeline
		lay.time("critpath.merge_ms", func() { tl, err = critpath.Merge(evs, w.p, -1) })
		if p.check(err, "critpath.Merge") {
			rep := critpath.Analyze(tl, predict.New(pf), pin.sched)
			if p.check(failIf(rep.PredictedCost <= 0 || rep.RealizedCost <= 0, "empty critical path"), "critpath.Analyze") {
				lay.count("critpath.model_gap_pct", 100*math.Abs(rep.RealizedCost-rep.PredictedCost)/rep.PredictedCost)
			}
		}
	}

	// The plan's other executors, as guards: a Barrier gain that slows them shows.
	periods, err := m.periods(5*n, func(r, i int) error {
		skipped, err := m.peers[r].BarrierResilient(pin.plan, tagWindow(i), recvDeadline)
		if err == nil && len(skipped) > 0 {
			err = fmt.Errorf("healthy mesh skipped ranks %v", skipped)
		}
		return err
	})
	if p.check(err, "BarrierResilient loop") {
		lay.count("netmpi.resilient_p50_us", median(periods)*1e6)
	}
	eps, err := netmpi.NewEpochs(pin.plan)
	runners := make([]*netmpi.EpochRunner, w.p)
	for r := 0; err == nil && r < w.p; r++ {
		runners[r], err = netmpi.NewEpochRunner(m.peers[r], eps, 0)
	}
	if err == nil {
		periods, err = m.periods(5*n, func(r, _ int) error { return runners[r].Barrier(recvDeadline) })
	}
	if p.check(err, "EpochRunner loop") {
		lay.count("netmpi.epoch_p50_us", median(periods)*1e6)
	}
	lay.count("telemetry.dropped_spans", float64(lay.ring.Dropped()))
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
