package netmpi

import (
	"fmt"
	"sort"
	"time"

	"topobarrier/internal/profile"
)

// Direction is one ordered link i→j of the mesh.
type Direction struct {
	From, To int
}

func (d Direction) String() string { return fmt.Sprintf("%d→%d", d.From, d.To) }

// ReprobeReport describes one targeted re-probe pass.
type ReprobeReport struct {
	// Screened is the number of directions the cheap screening phase
	// measured: every off-diagonal direction for a whole-mesh pass, only the
	// caller's implicated set for an aimed one.
	Screened int
	// Stale lists the directions whose screened round-trip cost drifted
	// beyond the tolerance — exactly the set the full prober revisited.
	Stale []Direction
	// ScreenSamples / FullSamples count the timed ping-pongs each phase
	// spent; the asymmetry between them is the whole point of two phases.
	ScreenSamples int
	FullSamples   int
	// Elapsed is the total wall-clock time of both phases.
	Elapsed time.Duration
}

// screen probes rounds of disjoint slots and compares each direction's
// observed round-trip cost against pf's O+L under RelDrift: checked is every
// direction measured, stale the ones that drifted beyond tol, each with its
// fresh measurement. It is the one screening loop behind the cache
// revalidation and both re-probe shapes; what a caller does with the stale
// set is its policy.
func screen(peers []*Peer, pf *profile.Profile, rounds [][]slot, opts ProbeOptions, tol float64) (checked, stale []freshDir, err error) {
	for _, round := range rounds {
		fresh, err := probeRound(peers, round, opts)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range fresh {
			old := pf.O.At(f.d.From, f.d.To) + pf.L.At(f.d.From, f.d.To)
			if RelDrift(old, f.r.o+f.r.l) > tol {
				stale = append(stale, f)
			}
		}
		checked = append(checked, fresh...)
	}
	return checked, stale, nil
}

// patch writes fresh measurements into pf and refolds the O[i][i] diagonal.
func patch(pf *profile.Profile, fresh []freshDir) {
	for _, f := range fresh {
		pf.O.Set(f.d.From, f.d.To, f.r.o)
		pf.L.Set(f.d.From, f.d.To, f.r.l)
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

// aimedRounds schedules an implicated direction set (validated,
// deduplicated, in ascending order) one direction at a time: each round is a
// single one-direction slot.
func aimedRounds(p int, dirs []Direction) ([][]slot, error) {
	seen := make(map[Direction]bool, len(dirs))
	uniq := make([]Direction, 0, len(dirs))
	for _, d := range dirs {
		if d.From < 0 || d.From >= p || d.To < 0 || d.To >= p || d.From == d.To {
			return nil, fmt.Errorf("netmpi: reprobe direction %s invalid for %d ranks", d, p)
		}
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	sortDirections(uniq)
	rounds := make([][]slot, len(uniq))
	for k, d := range uniq {
		rounds[k] = []slot{{d}}
	}
	return rounds, nil
}

// Reprobe refreshes a live profile in place after drift is suspected,
// spending the full adaptive probe budget only where it is needed — the
// online analogue of ProbeProfileCached's revalidation. Phase one screens
// with a two-sample probe and compares the observed round-trip cost against
// the profile's O+L under RelDrift. Phase two re-probes only the drifted
// directions with the caller's full adaptive options (sequentially — the
// stale set is expected to be a few links, and serial probing keeps each
// measurement uncontended by the others) and patches pf in place. Directions
// within tolerance keep their existing entries untouched.
//
// With no dirs (nil or empty: a blame that names nobody is not an error) the
// screen covers the whole mesh in tournament rounds (~2(P−1) parallel
// slots). Otherwise it is aimed at dirs (deduplicated, one direction at a
// time): the path the retune controller takes when critpath's per-link blame
// has already named suspects, so the screen cost scales with the evidence,
// not with the mesh.
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
	rounds, spanName := meshRounds(p), "probe.reprobe"
	if len(dirs) > 0 {
		var err error
		if rounds, err = aimedRounds(p, dirs); err != nil {
			return nil, err
		}
		spanName = "probe.reprobe_aimed"
	}
	opts = opts.withDefaults()
	rep := &ReprobeReport{}
	start := time.Now()
	span := opts.Tracer.Begin(spanName, -1, -1, -1)
	defer span.End()

	// Two samples per direction keep a whole-mesh screen O(P) wall-clock
	// while still taking a minimum over more than one observation.
	quick := opts
	quick.MaxIters, quick.StableK = min(2, opts.MaxIters), 0
	checked, stale, err := screen(peers, pf, rounds, quick, driftTol)
	if err != nil {
		return nil, fmt.Errorf("netmpi: reprobe screen: %w", err)
	}
	rep.Screened = len(checked)
	for _, f := range checked {
		rep.ScreenSamples += f.r.n
	}
	opts.Registry.Counter("probe_reprobe_screened_total").Add(int64(rep.Screened))
	opts.Registry.Counter("probe_reprobe_stale_total").Add(int64(len(stale)))

	for _, f := range stale {
		rep.Stale = append(rep.Stale, f.d)
	}
	sortDirections(rep.Stale)
	full := make([]freshDir, 0, len(stale))
	for _, d := range rep.Stale {
		r, err := probeDirection(peers, d.From, d.To, opts)
		if err != nil {
			return nil, fmt.Errorf("netmpi: reprobing %s: %w", d, err)
		}
		full = append(full, freshDir{d, r})
		rep.FullSamples += r.n
	}
	if len(full) > 0 {
		patch(pf, full)
	}
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("netmpi: reprobed profile invalid: %w", err)
	}
	return rep, nil
}
