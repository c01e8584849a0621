package netmpi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
)

// patch writes fresh measurements into pf and refolds the O[i][i] diagonal.
func patch(pf *profile.Profile, fresh []freshDir) {
	for _, f := range fresh {
		pf.O.Set(f.d.From, f.d.To, f.o)
		pf.L.Set(f.d.From, f.d.To, f.l)
	}
	setOii(pf)
}

func sortLinks(ls []profile.Link) {
	sort.Slice(ls, func(a, b int) bool {
		if ls[a].From != ls[b].From {
			return ls[a].From < ls[b].From
		}
		return ls[a].To < ls[b].To
	})
}

// aimedRounds validates a direction set and returns it with the rounds of the
// pairs whose series measure it, deduplicated, in ascending direction order.
func aimedRounds(p int, dirs []profile.Link) (rounds [][]probe.Pair, want map[profile.Link]bool, err error) {
	dirs = append([]profile.Link(nil), dirs...)
	sortLinks(dirs)
	var pairs []probe.Pair
	want = make(map[profile.Link]bool, len(dirs))
	for _, d := range dirs {
		if d.From < 0 || d.From >= p || d.To < 0 || d.To >= p || d.From == d.To {
			return nil, nil, fmt.Errorf("netmpi: reprobe direction %s invalid for %d ranks", d, p)
		}
		if pr := (probe.Pair{I: min(d.From, d.To), J: max(d.From, d.To)}); !want[d] && !want[profile.Link{From: d.To, To: d.From}] {
			pairs = append(pairs, pr)
		}
		want[d] = true
	}
	return probe.PairRounds(p, pairs), want, nil
}

// Reprobe is the one check of whether a live profile still describes its mesh,
// spending the full adaptive probe budget only where it is needed. Phase one
// screens with a two-sample series per pair and compares each direction's
// observed round-trip cost against the profile's O+L under RelDrift. Phase two
// re-measures the pairs of the flagged directions with the caller's full
// options; a flagged direction whose full-budget O+L still drifts beyond
// driftTol is stale, and only stale directions are patched into pf in place.
// Everything else — a screen false positive included — keeps its entry
// untouched.
//
// With no dirs (nil or empty: a blame that names nobody is not an error) the
// screen covers the whole mesh in tournament rounds (P−1 parallel rounds).
// Otherwise it is aimed at dirs (deduplicated; a pair's one series serves
// both of its directions, and only the named ones are judged): the path the
// retune controller takes when critpath's per-link blame has already named
// suspects, and the one ProbeProfileCached takes over the first tournament
// round, so the screen cost scales with the evidence, not with the mesh.
//
// Probe traffic lives in its own tag region, so Reprobe is safe to run while
// the same mesh executes barriers — measurements taken under load are
// exactly what an online controller wants to feed back into the model.
func Reprobe(peers []*Peer, pf *profile.Profile, opts ProbeOptions, driftTol float64, dirs []profile.Link) (*ProbeReport, error) {
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
	rep := newProbeReport(p)
	start := time.Now()
	span := opts.Tracer.Begin(spanName, -1, -1, -1)
	defer span.End()

	// Two samples per pair keep a whole-mesh screen O(P) wall-clock while
	// still taking a minimum over more than one observation.
	quick := opts
	quick.MaxIters, quick.StableK = min(2, opts.MaxIters), 0
	var flagged []profile.Link
	if err := measure(peers, rounds, quick, rep, func(f freshDir) {
		if aimed && !want[f.d] {
			return
		}
		if rep.Screened++; drifted(pf, f, driftTol) {
			flagged = append(flagged, f.d)
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobe screen: %w", err)
	}

	rounds, want, _ = aimedRounds(p, flagged)
	var stale []freshDir
	if err := measure(peers, rounds, opts, rep, func(f freshDir) {
		if want[f.d] && drifted(pf, f, driftTol) {
			stale = append(stale, f)
			rep.Stale = append(rep.Stale, f.d)
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobing %v: %w", flagged, err)
	}
	sortLinks(rep.Stale)
	opts.Registry.Counter("probe_reprobe_screened_total").Add(int64(rep.Screened))
	opts.Registry.Counter("probe_reprobe_stale_total").Add(int64(len(rep.Stale)))
	if len(stale) > 0 {
		patch(pf, stale)
	}
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("netmpi: reprobed profile invalid: %w", err)
	}
	return rep, nil
}

// drifted reports whether a fresh measurement's round-trip cost O+L moved
// from the profile's beyond the relative tolerance (RelDrift).
func drifted(pf *profile.Profile, f freshDir, tol float64) bool {
	return RelDrift(pf.O.At(f.d.From, f.d.To)+pf.L.At(f.d.From, f.d.To), f.o+f.l) > tol
}

// RelDrift is the relative distance between a cached and a fresh cost,
// normalised by the smaller of the two. Normalising by the cached value alone
// would saturate at 1 when the cache is too high (|fresh−old|/old < 1 for any
// fresh < old), making large tolerances blind to exactly the stale entries
// they should catch; the symmetric form grows without bound in both
// directions.
func RelDrift(old, fresh float64) float64 {
	if old <= 0 || fresh <= 0 {
		if old == fresh {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(fresh-old) / math.Min(old, fresh)
}
