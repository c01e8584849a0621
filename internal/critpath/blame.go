package critpath

import (
	"math"
	"sort"

	"topobarrier/internal/profile"
)

// Blame scores one observed direction against the profile.
type Blame struct {
	From, To int
	// Transport is the link's class: the live mesh's transport (tcp, shm) or
	// the simulated fabric's link class.
	Transport string
	// Observed is the direction's delivery floor: the minimum over its
	// matched messages of (arrival − max(send start, recv post)). Measuring
	// from the later of the two endpoints is what keeps blame causal: a
	// receiver stalled elsewhere posts its recv late and finds the message
	// already waiting, so its near-zero wait says nothing bad about the
	// link — only a receiver that was actually ready and still had to wait
	// observed the link itself. Every remaining observation includes the
	// true O+L plus scheduling noise, so the minimum is the robust
	// estimate — and a genuinely delayed link delays every message past a
	// ready receiver, so its floor rises with it.
	Observed float64
	// Expected is the profile's O+L for the direction.
	Expected float64
	// Score is the one-sided relative excess max(0, (Observed−Expected)/
	// Expected): how many profile-lengths slower than the model the link
	// has become. One-sided on purpose — blame aims re-probes at links
	// that got *slower*; a link that quietly got faster does not explain a
	// drift trigger.
	Score float64
	// Count is the number of observations behind the floor.
	Count int
	// OnRealized / OnPredicted mark membership of the critical paths when
	// the blame table is part of an Analyze report.
	OnRealized, OnPredicted bool
}

// LinkBlame scores every direction observed in the window (all matched
// messages, not just the selected barrier instance) against pf, sorted
// worst first and then by direction for determinism.
func (tl *Timeline) LinkBlame(pf *profile.Profile) []Blame {
	type agg struct {
		floor     float64
		n         int
		transport string
	}
	obs := map[profile.Link]*agg{}
	for _, m := range tl.All {
		// Arrived − max(SendStart, recv post) ≡ min(Arrived−SendStart, Wait):
		// head-of-line blocking on the receiver must not indict the link.
		d := m.Arrived - m.SendStart
		if m.Wait < d {
			d = m.Wait
		}
		a := obs[profile.Link{From: m.Src, To: m.Dst}]
		if a == nil {
			a = &agg{floor: math.Inf(1), transport: m.Transport}
			obs[profile.Link{From: m.Src, To: m.Dst}] = a
		}
		if d < a.floor {
			a.floor = d
		}
		a.n++
	}
	out := make([]Blame, 0, len(obs))
	for l, a := range obs {
		b := Blame{From: l.From, To: l.To, Transport: a.transport, Observed: a.floor, Count: a.n}
		if pf != nil && l.From < pf.P && l.To < pf.P {
			b.Expected = pf.O.At(l.From, l.To) + pf.L.At(l.From, l.To)
		}
		switch {
		case b.Expected > 0:
			if ex := (b.Observed - b.Expected) / b.Expected; ex > 0 {
				b.Score = ex
			}
		case b.Observed > 0:
			// No model for the link at all: any observation is infinitely
			// surprising, which keeps a missing profile loud rather than
			// silently unblamable.
			b.Score = math.Inf(1)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// Implicated returns the directions whose blame score exceeds tol, worst
// first — the set a drift-triggered re-probe should screen instead of all
// P·(P−1) directions. An empty result means the observed floors all sit
// within tolerance of the model and the caller should fall back to a full
// screen: the drift lives somewhere tracing cannot see.
func (tl *Timeline) Implicated(pf *profile.Profile, tol float64) []profile.Link {
	if tol <= 0 {
		tol = 1e-9
	}
	var out []profile.Link
	for _, b := range tl.LinkBlame(pf) {
		if b.Score > tol {
			out = append(out, profile.Link{From: b.From, To: b.To})
		}
	}
	return out
}
