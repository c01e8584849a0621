// Package retune closes the loop the paper's §VIII leaves open: barriers are
// tuned offline against a static O/L profile, so when run-time conditions
// drift — a congested link, a noisy neighbour, a rescheduled process — the
// tuned plan keeps executing against a model that is no longer true. The
// Controller watches predicted-vs-observed barrier cost through the mesh's
// telemetry histograms, and when the drift exceeds tolerance it (1)
// re-probes a copy of its live profile through netmpi.Reprobe (a two-sample
// screen, then the full budget on the flagged links; only links that still
// drift there are patched) and adopts the copy, (2) re-tunes the patched
// profile the way the running plan was tuned: one core.Tune call under the
// plan's own core.Options, with the same analyze.Vet gate, CertifyK demand
// included — the paper's cluster-and-compose pipeline ranks a small,
// well-characterised candidate set by model, cheap enough to re-run whole, as
// in "Fast Tuning of Intra-Cluster Collective Communications" — and (3) when
// that plan beats the running schedule, re-priced under the same policy, by a
// hysteresis margin, hot-swaps it into the running mesh through the epoch
// store, where the per-rank runners agree on the switch point inside their
// next barrier: its frames carry the plan version.
// No restart, no dropped barriers: the swap is a version bump the transport
// applies at a quiescence point.
package retune

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// Options configures a Controller. The zero value of each field selects the
// documented default.
type Options struct {
	// DriftTol is the relative predicted-vs-observed drift (netmpi.RelDrift,
	// normalised by the smaller of the two, exactly like Reprobe's per-link
	// verdict) beyond which the controller acts. It is also the per-link
	// tolerance handed to Reprobe. Default 1.0 — act when observation and
	// model disagree by 2×.
	DriftTol float64
	// MinObservations is the number of fresh barrier samples every rank
	// must have contributed since the last check before drift is judged;
	// fewer and the check is skipped. Default 8.
	MinObservations int64
	// Probe configures the re-probe phases (budget, adaptivity, deadline).
	Probe netmpi.ProbeOptions
	// Tune is the core.Options the running plan was tuned with. A triggered
	// check re-tunes the patched profile with them (components, clustering,
	// refinement, and the CertifyK gate a swapped-in plan must clear), and
	// every price the controller judges is taken under their Policy.
	Tune core.Options
	// Registry is the registry the mesh's peers publish to — the source of
	// the per-rank netmpi_barrier_seconds histograms the controller
	// watches. Required: a controller with nothing to observe is a bug.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records retune.check / retune.replan spans.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, is the critpath flight recorder wrapped around
	// the tracer the mesh's peers record message spans into. On every
	// drift trigger the controller dumps it (reason "drift") and asks the
	// traced messages which directions they implicate: when the per-link
	// blame names suspects, the re-probe screens only those directions
	// instead of all P·(P−1), and falls back to the full screen when the
	// blame is silent.
	Flight *critpath.FlightRecorder
}

// hysteresis is the fractional predicted improvement a re-tuned plan must
// show over the current schedule (re-priced under the patched profile) before
// a swap is proposed: swapping for noise-level wins would churn epochs for
// nothing.
const hysteresis = 0.05

func (o Options) withDefaults() Options {
	if o.DriftTol <= 0 {
		o.DriftTol = 1.0
	}
	if o.MinObservations <= 0 {
		o.MinObservations = 8
	}
	return o
}

// Decision records what one Check did.
type Decision struct {
	// Checked is false when some rank had fewer than MinObservations fresh
	// samples — no judgement was made and nothing below is meaningful.
	Checked bool
	// Observed is the slowest rank's median barrier seconds over the fresh
	// window; Predicted is the model's cost for the running schedule;
	// Drift their relative distance.
	Observed, Predicted, Drift float64
	// Triggered reports whether Drift exceeded the tolerance.
	Triggered bool
	// Implicated is the blame-derived direction set the re-probe was aimed
	// at; nil when no flight recorder was attached or the blame named no
	// suspects and the screen covered the whole mesh.
	Implicated []profile.Link
	// Reprobe describes the two-phase re-probe (nil unless triggered); its
	// Stale list is exactly the set of directions confirmed at the full
	// budget and patched.
	Reprobe *netmpi.ProbeReport
	// Repriced is the current schedule's predicted cost under the patched
	// profile; NewPredicted the re-tuned plan's, zero when the re-tune
	// failed its gate.
	Repriced, NewPredicted float64
	// Swapped reports whether a new plan was proposed; Version is the
	// epoch version it got (the running version when not swapped).
	Swapped bool
	Version int
	// Settling is true on the first check after a swap: that observation
	// window still mixes stale-plan barriers (and the runners' staggered
	// switch points) with new-plan ones, so judging it against the new
	// model would re-trigger on traffic the swap already cured. The check
	// discards the window and judges nothing.
	Settling bool
}

// Controller owns the closed loop for one mesh. It is driven either
// manually (Check) or by its own goroutine (Start/Stop); the two must not
// be mixed concurrently.
type Controller struct {
	peers []*netmpi.Peer
	eps   *netmpi.Epochs
	opts  Options

	sched     *sched.Schedule // schedule of the latest proposed plan
	pf        *profile.Profile
	predicted float64

	hist     []*telemetry.Histogram
	last     [][]int64 // per rank, the bucket counts at the end of the last window
	version  int
	settling bool // next window is contaminated by a swap; discard it

	checks, triggers, swaps *telemetry.Counter
	driftGauge              *telemetry.Gauge

	mu      sync.Mutex
	history []Decision
	runErr  error
	stop    chan struct{}
	done    chan struct{}
}

// New builds a controller for a live mesh. s and pf must be the schedule
// and (live-probed) profile behind the epoch store's current plan, and the
// peers must have been dialled with telemetry publishing to opts.Registry —
// that is where the observed barrier costs come from.
func New(peers []*netmpi.Peer, eps *netmpi.Epochs, s *sched.Schedule, pf *profile.Profile, opts Options) (*Controller, error) {
	if len(peers) < 2 || eps == nil || s == nil || pf == nil {
		return nil, fmt.Errorf("retune: controller needs a mesh, an epoch store, a schedule, and a profile")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("retune: controller needs the mesh's telemetry registry to observe drift")
	}
	if s.P != len(peers) || pf.P != len(peers) {
		return nil, fmt.Errorf("retune: schedule (%d ranks) / profile (%d ranks) vs %d-rank mesh", s.P, pf.P, len(peers))
	}
	opts = opts.withDefaults()
	pd := &predict.Predictor{Prof: pf, Policy: opts.Tune.Policy}
	c := &Controller{
		peers:      peers,
		eps:        eps,
		opts:       opts,
		sched:      s,
		pf:         pf,
		predicted:  pd.Cost(s),
		hist:       make([]*telemetry.Histogram, len(peers)),
		last:       make([][]int64, len(peers)),
		version:    eps.Latest(),
		checks:     opts.Registry.Counter("retune_checks_total"),
		triggers:   opts.Registry.Counter("retune_triggers_total"),
		swaps:      opts.Registry.Counter("retune_swaps_total"),
		driftGauge: opts.Registry.Gauge("retune_drift"),
	}
	for r := range peers {
		c.hist[r] = opts.Registry.Histogram(telemetry.Label("netmpi_barrier_seconds", "rank", strconv.Itoa(r)), nil)
		c.last[r] = c.hist[r].Buckets(nil)
	}
	opts.Flight.SetModel(pd, s)
	return c, nil
}

// Predicted returns the model cost of the schedule currently proposed.
func (c *Controller) Predicted() float64 { return c.predicted }

// Schedule returns the schedule currently proposed (initially the seed).
func (c *Controller) Schedule() *sched.Schedule { return c.sched }

// observe reads the per-rank barrier histograms and returns the slowest
// rank's median over the samples accumulated since the last successful
// observation, with the smallest per-rank fresh-sample count. The window is
// consumed only when every rank has contributed enough. A median, not a
// mean: one scheduler or GC stall of tens of milliseconds on every rank
// lifts each rank's mean over a 20-barrier window far past the model, while
// the window's 19 healthy barriers keep its median where it was.
func (c *Controller) observe() (median float64, minFresh int64) {
	p := len(c.peers)
	windows := make([][]int64, p)
	minFresh = math.MaxInt64
	for r := 0; r < p; r++ {
		now := c.hist[r].Buckets(nil)
		var fresh int64
		for i := range now {
			now[i] -= c.last[r][i]
			fresh += now[i]
		}
		windows[r] = now
		minFresh = min(minFresh, fresh)
	}
	if minFresh < c.opts.MinObservations {
		return 0, minFresh
	}
	for r := 0; r < p; r++ {
		median = max(median, c.hist[r].BucketQuantile(0.5, windows[r]))
		for i, n := range windows[r] {
			c.last[r][i] += n
		}
	}
	return median, minFresh
}

// Check runs one pass of the loop: observe, judge drift, and — when
// triggered — re-probe, re-tune, and propose. It is cheap when nothing
// drifted (a handful of histogram reads) and never blocks barrier traffic:
// the re-probe shares the mesh with live barriers by tag-space separation,
// and the proposal rides the version word of the next EpochRunner call and
// is installed at the call after every rank has seen it.
func (c *Controller) Check() (Decision, error) {
	span := c.opts.Tracer.Begin("retune.check", -1, -1, -1)
	defer span.End()
	c.checks.Inc()
	var d Decision
	d.Version = c.version
	d.Predicted = c.predicted

	if c.settling {
		c.settling = false
		d.Settling = true
		for r := range c.hist {
			c.last[r] = c.hist[r].Buckets(c.last[r][:0])
		}
		// Keep the flight windows aligned with the observation windows: the
		// contaminated spans go into their own (discarded-for-blame) window.
		c.opts.Flight.Cut("settle")
		return d, nil
	}

	observed, fresh := c.observe()
	if fresh < c.opts.MinObservations {
		return d, nil
	}
	d.Checked = true
	d.Observed = observed
	d.Drift = netmpi.RelDrift(c.predicted, observed)
	c.driftGauge.Set(d.Drift)
	if d.Drift <= c.opts.DriftTol {
		// The window was consumed quietly; cut the matching flight window so
		// a later trigger blames only the spans of the window that drifted,
		// not the healthy history (floors are minima — old healthy
		// observations would mask a link that got slow later).
		c.opts.Flight.Cut("check")
		return d, nil
	}
	d.Triggered = true
	c.triggers.Inc()

	// Re-probe only what moved. With a flight recorder attached, the traced
	// messages of the drifted window aim the screen — only the directions
	// whose observed delivery floor drifted from the model get measured —
	// and the drift moment is preserved on disk before the mesh is touched.
	if c.opts.Flight != nil {
		d.Implicated = c.opts.Flight.ImplicatedFresh(c.pf, c.opts.DriftTol, "drift")
		if _, derr := c.opts.Flight.Dump("drift"); derr != nil {
			return d, fmt.Errorf("retune: flight dump: %w", derr)
		}
	}
	// The recorder's model reads c.pf from whatever goroutine serves its
	// handler, so the re-probe patches a copy and the copy is swapped in.
	all := make([]int, c.pf.P)
	for r := range all {
		all[r] = r
	}
	pf := c.pf.Sub(all)
	rep, err := netmpi.Reprobe(c.peers, pf, c.opts.Probe, c.opts.DriftTol, d.Implicated)
	if err != nil {
		return d, fmt.Errorf("retune: re-probe: %w", err)
	}
	c.pf, d.Reprobe = pf, rep

	// The running schedule is re-priced under the patched profile either way,
	// so the next check judges against reality; the re-tuned plan replaces it
	// only when it beats that price by the hysteresis margin.
	tuned, repriced := c.replan()
	d.Repriced = repriced
	c.predicted = repriced
	if tuned != nil {
		d.NewPredicted = tuned.PredictedCost()
	}
	if tuned != nil && d.NewPredicted < repriced*(1-hysteresis) {
		v, err := c.eps.Propose(tuned.Plan)
		if err != nil {
			return d, fmt.Errorf("retune: proposing plan: %w", err)
		}
		c.sched, c.predicted, c.version = tuned.Schedule(), d.NewPredicted, v
		c.settling = true
		d.Swapped, d.Version, d.Predicted = true, v, d.NewPredicted
		c.swaps.Inc()
	}
	c.opts.Flight.SetModel(&predict.Predictor{Prof: c.pf, Policy: c.opts.Tune.Policy}, c.sched)
	return d, nil
}

// replan re-tunes the patched profile with the options the running plan was
// tuned with and re-prices the running schedule under their policy. core.Tune
// vets its plan (barriervet, the CertifyK demand, CheckPlan); a nil result
// means the re-tune failed that gate.
func (c *Controller) replan() (*core.Tuned, float64) {
	span := c.opts.Tracer.Begin("retune.replan", -1, -1, -1)
	defer span.End()
	repriced := (&predict.Predictor{Prof: c.pf, Policy: c.opts.Tune.Policy}).Cost(c.sched)
	tuned, err := core.Tune(c.pf, c.opts.Tune)
	if err != nil {
		return nil, repriced
	}
	return tuned, repriced
}

// Start launches the loop in its own goroutine, running Check every
// interval until Stop. Check errors latch (inspect with Err) and end the
// loop — an unrunnable controller should be loud, not silently idle.
func (c *Controller) Start(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d, err := c.Check()
				c.mu.Lock()
				c.history = append(c.history, d)
				if err != nil {
					c.runErr = err
					c.mu.Unlock()
					return
				}
				c.mu.Unlock()
			}
		}
	}()
}

// Stop ends the loop and waits for it.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// History returns the decisions the background loop has recorded.
func (c *Controller) History() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.history...)
}

// Err returns the error that ended the background loop, if any.
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}
