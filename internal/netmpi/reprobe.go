package netmpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
)

func sortLinks(ls []profile.Link) {
	slices.SortFunc(ls, func(a, b profile.Link) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) })
}

// patch writes one direction's fresh O and L into pf.
func patch(pf *profile.Profile, d profile.Link, o, l float64) {
	pf.O.Set(d.From, d.To, o)
	pf.L.Set(d.From, d.To, l)
}

// aimedPairs validates a direction set and returns it with the pairs that
// measure it, deduplicated, in ascending direction order.
func aimedPairs(p int, dirs []profile.Link) (pairs []probe.Pair, want map[profile.Link]bool, err error) {
	dirs = append([]profile.Link(nil), dirs...)
	sortLinks(dirs)
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
	return pairs, want, nil
}

// screenPhases is the phases of a re-probe's screen: a minimum over two.
const screenPhases = 2

// Reprobe is the one check of whether a live profile still describes its
// mesh, spending the full probe budget only where needed. Phase one screens
// each pair with probe's zero-byte round trips and compares the least half
// round trip with each direction's O+L under RelDrift (the fit makes O+L
// the size sweep's intercept, halved: the same quantity). Phase two measures
// the flagged directions' pairs with ProbeProfileOpts' protocol and options;
// a flagged direction whose fresh O+L still drifts beyond driftTol is stale,
// and only stale directions are patched into pf in place, with an unaimed
// reverse (the fit is one per pair). A screen false positive keeps its entry.
//
// With no dirs (a blame that names nobody is not an error) the screen covers
// every pair; otherwise only dirs' pairs, judging only the named directions:
// the retune controller's path, and ProbeProfileCached's over the first
// tournament round. It may run while the mesh executes barriers.
func Reprobe(peers []*Peer, pf *profile.Profile, opts ProbeOptions, driftTol float64, dirs []profile.Link) (*ProbeReport, error) {
	m, err := livePrograms(peers)
	if err != nil {
		return nil, err
	}
	p := len(peers)
	if pf == nil || pf.P != p {
		return nil, fmt.Errorf("netmpi: reprobe needs a %d-rank profile", p)
	}
	if driftTol <= 0 {
		return nil, fmt.Errorf("netmpi: reprobe needs a positive drift tolerance, got %g", driftTol)
	}
	pairs, aim, err := aimedPairs(p, dirs)
	if err != nil {
		return nil, err
	}
	aimed, spanName := len(aim) > 0, "probe.reprobe"
	if aimed {
		spanName = "probe.reprobe_aimed"
	} else {
		pairs = slices.Concat(probe.Rounds(p)...)
	}
	opts = opts.withDefaults()
	rep := newProbeReport(p)
	start := time.Now()
	span := opts.Tracer.Begin(spanName, -1, -1, -1)
	defer span.End()
	run := phaseRunner(peers, opts, rep)

	var flagged []profile.Link
	if err := m.Screens(pairs, screenPhases, run, func(i, j int, d float64) {
		rep.credit(opts.Registry, i, j, screenPhases)
		for _, dir := range [2]profile.Link{{From: i, To: j}, {From: j, To: i}} {
			if aimed && !aim[dir] {
				continue
			}
			if rep.Screened++; drifted(pf, dir, d, driftTol) {
				flagged = append(flagged, dir)
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobe screen: %w", err)
	}

	pairs, want, _ := aimedPairs(p, flagged)
	if err := m.Phases(pairs, opts.MaxIters, opts.StableK, run, func(i, j int, o, l float64, n int) {
		if i == j {
			return
		}
		rep.credit(opts.Registry, i, j, n)
		both := [2]profile.Link{{From: i, To: j}, {From: j, To: i}}
		for _, dir := range both {
			if want[dir] && drifted(pf, dir, o+l, driftTol) {
				rep.Stale = append(rep.Stale, dir)
				for _, d := range both {
					if d == dir || aimed && !aim[d] { // and an unaimed reverse
						patch(pf, d, o, l)
					}
				}
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("netmpi: reprobing %v: %w", flagged, err)
	}
	sortLinks(rep.Stale)
	opts.Registry.Counter("probe_reprobe_screened_total").Add(int64(rep.Screened))
	opts.Registry.Counter("probe_reprobe_stale_total").Add(int64(len(rep.Stale)))
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("netmpi: reprobed profile invalid: %w", err)
	}
	return rep, nil
}

// drifted reports whether a direction's fresh round-trip cost moved from the
// profile's O+L beyond the relative tolerance (RelDrift).
func drifted(pf *profile.Profile, d profile.Link, fresh, tol float64) bool {
	return RelDrift(pf.O.At(d.From, d.To)+pf.L.At(d.From, d.To), fresh) > tol
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
