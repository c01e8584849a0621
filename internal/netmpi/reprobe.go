package netmpi

import (
	"fmt"
	"sort"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
)

// Direction is one ordered link i→j of the mesh.
type Direction struct {
	From, To int
}

func (d Direction) String() string { return fmt.Sprintf("%d→%d", d.From, d.To) }

// ReprobeReport describes one targeted re-probe pass.
type ReprobeReport struct {
	// Screened is the number of directions the cheap screening phase held
	// against the profile: all P·(P−1) for a whole-mesh pass, only the
	// caller's implicated set for an aimed one.
	Screened int
	// Stale lists the directions whose screened round-trip cost drifted
	// beyond the tolerance — exactly the set the full prober revisited.
	Stale []Direction
	// ScreenSamples / FullSamples count the timed round trips each phase
	// spent; the asymmetry between them is the whole point of two phases.
	ScreenSamples int
	FullSamples   int
	// Elapsed is the total wall-clock time of both phases.
	Elapsed time.Duration
}

// patch writes fresh measurements into pf and refolds the O[i][i] diagonal.
func patch(pf *profile.Profile, fresh []freshDir) {
	for _, f := range fresh {
		pf.O.Set(f.d.From, f.d.To, f.o)
		pf.L.Set(f.d.From, f.d.To, f.l)
	}
	setOii(pf)
}

func sortDirections(ds []Direction) {
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].From != ds[b].From {
			return ds[a].From < ds[b].From
		}
		return ds[a].To < ds[b].To
	})
}

// aimedRounds validates a direction set and returns it with the rounds of the
// pairs whose series measure it, deduplicated, in ascending direction order.
func aimedRounds(p int, dirs []Direction) (rounds [][]probe.Pair, want map[Direction]bool, err error) {
	dirs = append([]Direction(nil), dirs...)
	sortDirections(dirs)
	var pairs []probe.Pair
	want = make(map[Direction]bool, len(dirs))
	for _, d := range dirs {
		if d.From < 0 || d.From >= p || d.To < 0 || d.To >= p || d.From == d.To {
			return nil, nil, fmt.Errorf("netmpi: reprobe direction %s invalid for %d ranks", d, p)
		}
		if pr := (probe.Pair{I: min(d.From, d.To), J: max(d.From, d.To)}); !want[d] && !want[Direction{d.To, d.From}] {
			pairs = append(pairs, pr)
		}
		want[d] = true
	}
	return probe.PairRounds(p, pairs), want, nil
}

// Reprobe refreshes a live profile in place after drift is suspected,
// spending the full adaptive probe budget only where it is needed — the
// online analogue of ProbeProfileCached's revalidation. Phase one screens
// with a two-sample series per pair and compares each direction's observed
// round-trip cost against the profile's O+L under RelDrift. Phase two
// re-probes only the pairs of the drifted directions with the caller's full
// adaptive options and patches those directions of pf in place. Directions
// within tolerance keep their existing entries untouched.
//
// With no dirs (nil or empty: a blame that names nobody is not an error) the
// screen covers the whole mesh in tournament rounds (P−1 parallel rounds).
// Otherwise it is aimed at dirs (deduplicated; a pair's one series serves
// both of its directions, and only the named ones are reported): the path the
// retune controller takes when critpath's per-link blame has already named
// suspects, so the screen cost scales with the evidence, not with the mesh.
//
// Probe traffic lives in its own tag region, so Reprobe is safe to run while
// the same mesh executes barriers — measurements taken under load are
// exactly what an online controller wants to feed back into the model.
func Reprobe(peers []*Peer, pf *profile.Profile, opts ProbeOptions, driftTol float64, dirs []Direction) (*ReprobeReport, error) {
	if err := validateProbePeers(peers); err != nil {
		return nil, err
	}
	p := len(peers)
	if pf == nil || pf.P != p {
		return nil, fmt.Errorf("netmpi: reprobe needs a %d-rank profile", p)
	}
	if driftTol <= 0 {
		return nil, fmt.Errorf("netmpi: reprobe needs a positive drift tolerance, got %g", driftTol)
	}
	rounds, want, err := aimedRounds(p, dirs)
	if err != nil {
		return nil, err
	}
	aimed, spanName := len(want) > 0, "probe.reprobe"
	if aimed {
		spanName = "probe.reprobe_aimed"
	} else {
		rounds = probe.Rounds(p)
	}
	opts = opts.withDefaults()
	rep := &ReprobeReport{}
	start := time.Now()
	span := opts.Tracer.Begin(spanName, -1, -1, -1)
	defer span.End()

	// Two samples per pair keep a whole-mesh screen O(P) wall-clock while
	// still taking a minimum over more than one observation.
	quick, spent := opts, newProbeReport(p)
	quick.MaxIters, quick.StableK = min(2, opts.MaxIters), 0
	if err := measure(peers, rounds, quick, spent, func(f freshDir) {
		if aimed && !want[f.d] {
			return
		}
		if rep.Screened++; drifted(pf, f, driftTol) {
			rep.Stale = append(rep.Stale, f.d)
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobe screen: %w", err)
	}
	rep.ScreenSamples = spent.TotalSamples()
	opts.Registry.Counter("probe_reprobe_screened_total").Add(int64(rep.Screened))
	opts.Registry.Counter("probe_reprobe_stale_total").Add(int64(len(rep.Stale)))

	sortDirections(rep.Stale)
	rounds, want, _ = aimedRounds(p, rep.Stale)
	var full []freshDir
	spent = newProbeReport(p)
	if err := measure(peers, rounds, opts, spent, func(f freshDir) {
		if want[f.d] {
			full = append(full, f)
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobing %v: %w", rep.Stale, err)
	}
	rep.FullSamples = spent.TotalSamples()
	if len(full) > 0 {
		patch(pf, full)
	}
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("netmpi: reprobed profile invalid: %w", err)
	}
	return rep, nil
}
