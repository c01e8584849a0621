package netmpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/telemetry"
)

// probeTagBase keeps probe traffic out of the barrier tag windows: data
// barriers use [0, 2·run.TagSpan) under the two alternating windows.
const probeTagBase = 1 << 20

// ProbeOptions configures ProbeProfileOpts. The zero value (after defaults)
// is 8 fixed ping-pongs per pair and a 5 s per-receive deadline.
type ProbeOptions struct {
	// MaxIters is the hard cap of timed ping-pongs per pair; 0 selects 8.
	MaxIters int
	// StableK enables adaptive sampling: a pair's series stops early once its
	// running minimum RTT has not improved for StableK consecutive samples.
	// Minima converge fast under one-sided scheduling noise, so most quiet
	// links stop well before MaxIters. 0 disables early stopping. When it
	// fires, a series has taken at least StableK+1 samples (the first sample
	// always establishes the minimum).
	StableK int
	// Deadline bounds each probe receive; 0 selects 5 s.
	Deadline time.Duration
	// Registry, when non-nil, receives probe_rounds_total,
	// probe_directions_total, probe_samples_total, and the
	// probe_samples_per_pair histogram.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records one probe.profile span for the whole
	// measurement and one probe.round span per parallel round.
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

// key returns the fingerprint component of the options: the fields that
// change what a measurement means.
func (o ProbeOptions) key() string {
	return fmt.Sprintf("iters=%d,stablek=%d", o.MaxIters, o.StableK)
}

// ProbeReport describes how a probe or re-probe run spent its budget and, for
// a re-probe, what it found.
type ProbeReport struct {
	// Rounds is the number of parallel rounds executed (0 on a pure cache
	// hit).
	Rounds int
	// Samples[i][j] is the number of timed round trips of the series rank i
	// initiated with rank j, over every phase. A pair is one series that
	// yields both directions, credited here to the initiating one: 0 for the
	// echo direction, on the diagonal, and for pairs served from the cache.
	Samples [][]int
	// Screened is the number of directions a re-probe's two-sample screen
	// held against the profile: all P·(P−1) for a whole-mesh pass, only the
	// named ones for an aimed one. 0 for a full probe.
	Screened int
	// Stale lists, in ascending order, the screened directions whose O+L
	// still drifted beyond the tolerance when re-measured at the full budget:
	// exactly the entries the re-probe patched.
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

// TotalSamples returns the total number of timed round trips taken.
func (r *ProbeReport) TotalSamples() int {
	n := 0
	for _, row := range r.Samples {
		for _, s := range row {
			n += s
		}
	}
	return n
}

// SampleStats summarises the per-series sample counts (min, median, max) over
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

// freshDir is one direction's fresh measurement: the fitted O/L estimates and
// the timed round trips credited to it (the series' count on the initiating
// direction, 0 on the echo's).
type freshDir struct {
	d    profile.Link
	o, l float64
	n    int
}

func validateProbePeers(peers []*Peer) error {
	p := len(peers)
	if p < 2 {
		return fmt.Errorf("netmpi: probe needs at least 2 peers, got %d", p)
	}
	for r, pe := range peers {
		if pe == nil || pe.Rank() != r || pe.Size() != p {
			return fmt.Errorf("netmpi: probe needs the full mesh in rank order")
		}
	}
	return nil
}

// ProbeProfileOpts measures a topological profile (the paper's O and L
// matrices, §IV) over a live in-process mesh — the real-transport analogue
// of internal/probe's simulator benchmarks, and the input the §VI validation
// needs to predict what the *transport* should do rather than what the
// simulator would.
//
// A pair is one series of empty-frame ping-pongs that yields both directions
// (probePair): O is the fastest observed Send call of the direction's sender
// (the eager write cost), L the fastest half round trip minus that overhead,
// and O[i][i] the rank's fastest send overhead to any peer. Minima rather
// than means deliberately: scheduling noise on a shared host only ever adds
// latency, so the minimum is the closest observation to the platform
// constants the model wants.
//
// Every pair is measured, in the tournament rounds of probe.Rounds: P−1 (even
// P) joined rounds of disjoint pairs, so a rank never has two in-flight timed
// exchanges. That is also why the live venue does not follow the simulator's
// hierarchy survey above 16 ranks: its cost here is joined rounds, not pairs,
// and a centre's star is one round per pair — the two diameter sweeps alone
// are 2·P−3 rounds. StableK additionally stops each series as soon as its
// running minimum is stable.
func ProbeProfileOpts(peers []*Peer, opts ProbeOptions) (*profile.Profile, *ProbeReport, error) {
	if err := validateProbePeers(peers); err != nil {
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
	if err := measure(peers, probe.Rounds(p), opts, rep, func(f freshDir) {
		pf.O.Set(f.d.From, f.d.To, f.o)
		pf.L.Set(f.d.From, f.d.To, f.l)
	}); err != nil {
		return nil, nil, err
	}
	setOii(pf)
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, nil, fmt.Errorf("netmpi: probed profile invalid: %w", err)
	}
	return pf, rep, nil
}

// measure is the one probe loop of a live mesh: rounds of disjoint pairs, each
// round probed concurrently and joined, every direction's result handed to
// each and the spend recorded in rep. The whole-mesh probe and both re-probe
// phases measure through it.
func measure(peers []*Peer, rounds [][]probe.Pair, opts ProbeOptions, rep *ProbeReport, each func(freshDir)) error {
	for _, round := range rounds {
		span := opts.Tracer.Begin("probe.round", -1, rep.Rounds, -1)
		fresh, err := probeRound(peers, round, opts)
		span.End()
		opts.Registry.Counter("probe_rounds_total").Inc()
		rep.Rounds++
		if err != nil {
			return err
		}
		for _, f := range fresh {
			each(f)
			opts.Registry.Counter("probe_directions_total").Inc()
			if f.n > 0 {
				rep.Samples[f.d.From][f.d.To] += f.n
				opts.Registry.Counter("probe_samples_total").Add(int64(f.n))
				opts.Registry.Histogram("probe_samples_per_pair", probeSampleBuckets()).Observe(float64(f.n))
			}
		}
	}
	return nil
}

// probeSampleBuckets covers sample counts from 1 to well past any sane
// MaxIters.
func probeSampleBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}
}

// setOii fills the diagonal: the cost of initiating a request that sends
// nothing, bounded above by the cheapest real send the rank performed. The
// fold initialises from the first off-diagonal entry explicitly — a 0.0
// sentinel would mistake a genuine zero-overhead link for "unset" and pick
// the wrong minimum.
func setOii(pf *profile.Profile) {
	for i := 0; i < pf.P; i++ {
		min, first := 0.0, true
		for j := 0; j < pf.P; j++ {
			if i == j {
				continue
			}
			if o := pf.O.At(i, j); first || o < min {
				min, first = o, false
			}
		}
		pf.O.Set(i, i, min)
	}
}

// probeRound runs the pairs of one round concurrently and joins before
// returning — the concurrency heart of the probe. The pairs of a round share
// no rank, so every rank is in at most one timed exchange at any instant and
// the measurements stay uncontended. The results come back in pair order,
// initiating direction first.
func probeRound(peers []*Peer, round []probe.Pair, opts ProbeOptions) ([]freshDir, error) {
	fresh := make([]freshDir, 2*len(round))
	errs := make([]error, len(round))
	var wg sync.WaitGroup
	for k, pr := range round {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fwd, back, err := probePair(peers, pr.I, pr.J, opts)
			if err != nil {
				errs[k] = fmt.Errorf("netmpi: probing %s: %w", fwd.d, err)
			}
			fresh[2*k], fresh[2*k+1] = fwd, back
		}()
	}
	wg.Wait()
	return fresh, errors.Join(errs...)
}

// probePair times one series of ping-pongs i→j→i and reads both directions
// off it: the round trip j→i→j is the same two legs, so the echo side times
// its own Send for O[j][i] and the two directions share the minimum RTT. The
// two sides share a stop latch: whichever side errors first closes it,
// cancelling the partner's pending receive, so a broken pair surfaces
// immediately instead of stalling for the partner's full receive deadline.
// Normal completion closes the latch too, which is how the echo side learns
// the (adaptively chosen) sample count is over.
func probePair(peers []*Peer, i, j int, opts ProbeOptions) (fwd, back freshDir, err error) {
	p := len(peers)
	ping := probeTagBase + 2*(i*p+j)
	pong := ping + 1
	fwd.d, back.d = profile.Link{From: i, To: j}, profile.Link{From: j, To: i}

	stop := make(chan struct{})
	var stopOnce sync.Once
	latch := func() { stopOnce.Do(func() { close(stop) }) }

	var echoErr error
	var minRTT, minSend, minEcho time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer latch()
		for first := true; ; first = false {
			if _, err := peers[j].RecvCancel(i, ping, opts.Deadline, stop); err != nil {
				if !errors.Is(err, ErrRecvCancelled) {
					echoErr = err
				}
				return
			}
			t0 := time.Now()
			if err := peers[j].Send(i, pong, nil); err != nil {
				echoErr = err
				return
			}
			if c := time.Since(t0); first || c < minEcho {
				minEcho = c
			}
		}
	}()

	var pingErr error
	n, stable, first := 0, 0, true
	for n < opts.MaxIters {
		t0 := time.Now()
		if pingErr = peers[i].Send(j, ping, nil); pingErr != nil {
			break
		}
		sendCost := time.Since(t0)
		if _, pingErr = peers[i].RecvCancel(j, pong, opts.Deadline, stop); pingErr != nil {
			if errors.Is(pingErr, ErrRecvCancelled) {
				pingErr = nil // the echo side failed first; report its error
			}
			break
		}
		rtt := time.Since(t0)
		n++
		if first || rtt < minRTT {
			minRTT = rtt
			stable = 0
		} else {
			stable++
		}
		if first || sendCost < minSend {
			minSend = sendCost
		}
		first = false
		if opts.StableK > 0 && stable >= opts.StableK {
			break
		}
	}
	latch()
	<-done
	if pingErr != nil {
		return fwd, back, pingErr
	}
	if echoErr != nil {
		return fwd, back, fmt.Errorf("echo side: %w", echoErr)
	}
	fwd.o, back.o, fwd.n = minSend.Seconds(), minEcho.Seconds(), n
	fwd.l, back.l = max(0, minRTT.Seconds()/2-fwd.o), max(0, minRTT.Seconds()/2-back.o)
	return fwd, back, nil
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
// the mesh size and the measurement-relevant probe options; a hybrid mesh
// keys on its transport signature too — a profile measured with shared
// memory between co-located ranks must never answer for a pure-TCP mesh or
// for a different co-location shape, since the entire point is that their
// cost matrices differ. Loopback listener ports are ephemeral and
// deliberately excluded — on one host, every P-rank loopback mesh is the same
// platform.
func MeshFingerprint(peers []*Peer, opts ProbeOptions) profile.Fingerprint {
	platform, sig := meshPlatform(peers)
	parts := []string{platform, strconv.Itoa(len(peers)), opts.withDefaults().key()}
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
	if err := validateProbePeers(peers); err != nil {
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
