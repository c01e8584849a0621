package netmpi

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/telemetry"
)

// probeTagBase keeps probe traffic out of the barrier tag windows: data
// barriers use [0, 2·run.TagSpan) under the two alternating windows.
const probeTagBase = 1 << 20

// liveConfig is the §IV.A protocol the live venue runs, one repetition a
// phase: the fewest batches and sizes a gradient and an intercept fit, the
// larger size far enough from the smaller to show the per-byte cost.
var liveConfig = probe.Config{Sizes: []int{1, 1024}, Batches: []int{1, 2}, Reps: 1}

// ProbeOptions configures ProbeProfileOpts. The zero value (after defaults)
// is 8 phases per pair and a 5 s per-receive deadline.
type ProbeOptions struct {
	// MaxIters is the most phases a pair takes, each one repetition of its
	// protocol; 0 selects 8.
	MaxIters int
	// StableK enables adaptive sampling: a pair stops early, after at least
	// StableK+1 phases, once its fitted O+L (from each sample point's median
	// over them) has not improved for StableK phases. 0 never stops early.
	StableK int
	// Deadline bounds each probe receive; 0 selects 5 s.
	Deadline time.Duration
	// Registry, when non-nil, receives probe_rounds_total (phases),
	// probe_directions_total, probe_samples_total, and the
	// probe_samples_per_pair histogram.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records one probe.profile span for the whole
	// measurement and one probe.round span per phase. Probe programs emit no
	// barrier spans.
	Tracer *telemetry.Tracer
}

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 8
	}
	if o.Deadline == 0 {
		o.Deadline = 5 * time.Second
	}
	return o
}

// ProbeReport describes how a probe or re-probe run spent its budget and, for
// a re-probe, what it found.
type ProbeReport struct {
	// Rounds is the number of phases run, screens included (0 on a pure
	// cache hit).
	Rounds int
	// Samples[i][j] is the number of phases (repetitions of the protocol or
	// screen) of the pair rank i initiated with rank j, over every pass: 0
	// for the other direction, on the diagonal, and for cached pairs.
	Samples [][]int
	// Screened is the number of directions a re-probe's screen held against
	// the profile: P·(P−1) for a whole-mesh pass, the named ones if aimed.
	Screened int
	// Stale lists, in ascending order, the screened directions whose O+L
	// still drifted when re-measured at the full budget: the ones patched.
	Stale []profile.Link
	// Elapsed is the probe wall-clock time.
	Elapsed time.Duration
}

func newProbeReport(p int) *ProbeReport {
	r := &ProbeReport{Samples: make([][]int, p)}
	for i := range r.Samples {
		r.Samples[i] = make([]int, p)
	}
	return r
}

// credit books n phases of the pair (i, j) to its initiator i, in the report
// and the registry.
func (r *ProbeReport) credit(reg *telemetry.Registry, i, j, n int) {
	r.Samples[i][j] += n
	reg.Counter("probe_directions_total").Add(2)
	reg.Counter("probe_samples_total").Add(int64(n))
	reg.Histogram("probe_samples_per_pair", []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}).Observe(float64(n))
}

// TotalSamples returns the total number of phases the pairs took.
func (r *ProbeReport) TotalSamples() int {
	n := 0
	for _, row := range r.Samples {
		for _, s := range row {
			n += s
		}
	}
	return n
}

// SampleStats summarises the per-pair phase counts (min, median, max) over
// the pairs that were actually probed.
func (r *ProbeReport) SampleStats() (min, median, max float64) {
	var xs []float64
	for _, row := range r.Samples {
		for _, s := range row {
			if s > 0 {
				xs = append(xs, float64(s))
			}
		}
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return stats.Min(xs), stats.Median(xs), stats.Max(xs)
}

// livePrograms checks that peers are a whole mesh in rank order and returns
// the protocol's builder for it.
func livePrograms(peers []*Peer) (*probe.Programs, error) {
	p := len(peers)
	if p < 2 {
		return nil, fmt.Errorf("netmpi: probe needs at least 2 peers, got %d", p)
	}
	for r, pe := range peers {
		if pe == nil || pe.Rank() != r || pe.Size() != p {
			return nil, fmt.Errorf("netmpi: probe needs the full mesh in rank order")
		}
	}
	return probe.NewPrograms(liveConfig, p)
}

// ProbeProfileOpts measures a live mesh's profile (§IV) with the
// simulator's §IV.A step programs and fit (probe.Programs), run on each
// rank's probe cursor, beside any barrier it runs: L is a same-peer batch's
// gradient, O the round trips' intercept over size, halved, minus L, O[i][i]
// a no-op step's time, and a pair's fit serves both directions. A phase is
// one repetition (liveConfig) of every pair still active, in tournament
// order; every pair is measured at any P, since a phase costs what its
// busiest rank's pairs cost. A failed pair fails the probe, naming it.
func ProbeProfileOpts(peers []*Peer, opts ProbeOptions) (*profile.Profile, *ProbeReport, error) {
	m, err := livePrograms(peers)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	if opts.MaxIters < 0 || opts.StableK < 0 {
		return nil, nil, fmt.Errorf("netmpi: negative probe budget (iters=%d, stableK=%d)", opts.MaxIters, opts.StableK)
	}
	p := len(peers)
	platform, _ := meshPlatform(peers)
	rep := newProbeReport(p)
	start := time.Now()
	span := opts.Tracer.Begin("probe.profile", -1, -1, -1)
	defer span.End()

	pf := profile.New(fmt.Sprintf("%s(P=%d)", platform, p), p)
	if err := m.Phases(slices.Concat(probe.Rounds(p)...), opts.MaxIters, opts.StableK, phaseRunner(peers, opts, rep), func(i, j int, o, l float64, n int) {
		pf.O.Set(i, j, o)
		if i != j {
			pf.L.Set(i, j, l)
			pf.O.Set(j, i, o)
			pf.L.Set(j, i, l)
			rep.credit(opts.Registry, i, j, n)
		}
	}); err != nil {
		return nil, nil, fmt.Errorf("netmpi: %w", err)
	}
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, nil, fmt.Errorf("netmpi: probed profile invalid: %w", err)
	}
	return pf, rep, nil
}

// phaseRunner is the venue under probe.Programs on a live mesh: every rank
// runs its program of a phase on its probe cursor, on a goroutine of its
// own, and the phase is joined and booked in rep. The first program to fail
// aborts the others, which would otherwise wait out the deadline on it.
func phaseRunner(peers []*Peer, opts ProbeOptions, rep *ProbeReport) func([]mpi.Program) error {
	return func(progs []mpi.Program) error {
		span := opts.Tracer.Begin("probe.round", -1, rep.Rounds, -1)
		defer span.End()
		opts.Registry.Counter("probe_rounds_total").Inc()
		rep.Rounds++
		var first error // the failure that aborted the others, which fail after it
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r, pg := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := peers[r].pcur.probe(pg, opts.Deadline, &stop); err != nil && !stop.Swap(true) {
					first = err
					for _, pe := range peers {
						pe.pcur.abort()
					}
				}
			}()
		}
		wg.Wait()
		return first
	}
}

var errAborted = errors.New("netmpi: probe phase aborted")

// probe runs a phase's program on the probe cursor, as program does, and
// aborts it once begun if stop is set, which may have come before it began.
func (c *cursor) probe(pg mpi.Program, deadline time.Duration, stop *atomic.Bool) error {
	if err := c.p.bind(&c.progBind, pg.Steps, probeTagBase); err != nil {
		return err
	}
	if err := c.begin(&c.progBind, deadline, false, 0, pg.Done); err != nil {
		return err
	}
	if stop.Load() {
		c.abort()
	}
	c.own.drain()
	_, _, err := c.wait()
	return err
}

// abort fails the running program, if any, with errAborted.
func (c *cursor) abort() {
	c.mu.Lock()
	defer c.unlock()
	if c.running() {
		c.err = errAborted
		c.signal()
	}
}

// meshPlatform names the platform a mesh's profile describes, with the
// transport signature that tells co-location shapes apart. A hybrid mesh is a
// different platform from a pure-TCP one: its O/L matrices carry the
// intra-node vs cross-node class gap the pure-TCP mesh cannot show.
func meshPlatform(peers []*Peer) (platform, sig string) {
	if sig = peers[0].TransportSignature(); sig == "tcp" {
		return "netmpi-loopback", sig
	}
	return "netmpi-hybrid", sig
}

// MeshFingerprint is the cache key of a probe over a live mesh: the platform,
// the mesh size, the probe budget and the protocol (liveConfig's key, so an
// entry measured another way misses), and a hybrid mesh's transport
// signature, since a co-location shape's cost matrices differ from any
// other's. Loopback ports are excluded: every P-rank loopback mesh on one
// host is the same platform.
func MeshFingerprint(peers []*Peer, opts ProbeOptions) profile.Fingerprint {
	platform, sig := meshPlatform(peers)
	opts = opts.withDefaults()
	parts := []string{platform, strconv.Itoa(len(peers)), fmt.Sprintf("iters=%d,stablek=%d", opts.MaxIters, opts.StableK), liveConfig.Key()}
	if sig != "tcp" {
		parts = append(parts, sig)
	}
	return profile.FingerprintOf(parts...)
}

// ProbeProfileCached is ProbeProfileOpts behind a fingerprinted profile
// cache. A miss probes the mesh and stores the result. A hit returns the
// saved profile; with driftTol > 0 it first re-checks it through Reprobe,
// aimed at both directions of every pair of the first tournament round
// (⌊P/2⌋ disjoint pairs). Stale directions are patched and the entry is
// re-stored; if more than half the screened directions are stale, the
// platform moved rather than a link, and the whole profile is re-probed from
// scratch. The returned bool reports whether the cache was hit.
func ProbeProfileCached(peers []*Peer, opts ProbeOptions, cache *profile.Cache, driftTol float64) (*profile.Profile, *ProbeReport, bool, error) {
	if cache == nil {
		pf, rep, err := ProbeProfileOpts(peers, opts)
		return pf, rep, false, err
	}
	if _, err := livePrograms(peers); err != nil {
		return nil, nil, false, err
	}
	opts = opts.withDefaults()
	p := len(peers)
	fp := MeshFingerprint(peers, opts)
	// A corrupt entry is a miss; Store overwrites it.
	if cached, hit, _ := cache.Load(fp); hit && cached.P == p {
		if driftTol <= 0 {
			return cached, newProbeReport(p), true, nil
		}
		var dirs []profile.Link
		for _, pr := range probe.Rounds(p)[0] {
			dirs = append(dirs, profile.Link{From: pr.I, To: pr.J}, profile.Link{From: pr.J, To: pr.I})
		}
		rep, err := Reprobe(peers, cached, opts, driftTol, dirs)
		if err != nil {
			return nil, nil, true, fmt.Errorf("netmpi: cache revalidation: %w", err)
		}
		if 2*len(rep.Stale) <= rep.Screened {
			if len(rep.Stale) > 0 {
				if err := cache.Store(fp, cached); err != nil {
					return nil, nil, true, fmt.Errorf("netmpi: re-storing revalidated profile: %w", err)
				}
			}
			return cached, rep, true, nil
		}
	}
	pf, rep, err := ProbeProfileOpts(peers, opts)
	if err != nil {
		return nil, nil, false, err
	}
	if err := cache.Store(fp, pf); err != nil {
		return nil, nil, false, fmt.Errorf("netmpi: storing probed profile: %w", err)
	}
	return pf, rep, false, nil
}
