package netmpi

import (
	"testing"
	"time"

	"topobarrier/internal/profile"
)

// TestReprobeAimedScreen pins the aimed re-probe: it screens
// exactly the caller's (deduplicated) implicated set, never the whole mesh,
// and only directions that still drift at the full probe budget are stale.
func TestReprobeAimedScreen(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	opts := ProbeOptions{MaxIters: 3, StableK: 2, Deadline: 10 * time.Second}
	pf, _, err := ProbeProfileOpts(peers, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh profile screened against itself within a generous tolerance:
	// both directions screened, nothing stale, profile untouched.
	o01, l01 := pf.O.At(0, 1), pf.L.At(0, 1)
	rep, err := Reprobe(peers, pf, opts, 1000, []profile.Link{{From: 0, To: 1}, {From: 2, To: 3}, {From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Screened != 2 {
		t.Errorf("screened %d directions, want 2 (deduplicated aim set)", rep.Screened)
	}
	if len(rep.Stale) != 0 {
		t.Errorf("stale %v under a huge tolerance", rep.Stale)
	}
	if pf.O.At(0, 1) != o01 || pf.L.At(0, 1) != l01 {
		t.Error("profile patched for a direction within tolerance")
	}

	// Force the 0→1 entry to be absurdly stale: the aimed pass must fully
	// re-probe exactly that direction and patch the profile back to reality.
	pf.O.Set(0, 1, 10.0) // 10 seconds of overhead never survives a screen
	rep, err = Reprobe(peers, pf, opts, 0.5, []profile.Link{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Screened != 1 || len(rep.Stale) != 1 || rep.Stale[0] != (profile.Link{From: 0, To: 1}) {
		t.Fatalf("aimed pass screened %d, stale %v; want 1 and [0→1]", rep.Screened, rep.Stale)
	}
	if got := pf.O.At(0, 1); got >= 1 {
		t.Errorf("stale O[0][1] not repaired: %g", got)
	}
	if rep.TotalSamples() == 0 {
		t.Errorf("no samples counted: %+v", rep)
	}
	if err := pf.Validate(); err != nil {
		t.Errorf("patched profile invalid: %v", err)
	}
}

// TestReprobeAimedValidation pins the argument contract.
func TestReprobeAimedValidation(t *testing.T) {
	peers, err := LoopbackMesh(3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	opts := ProbeOptions{MaxIters: 2, Deadline: 5 * time.Second}
	pf, _, err := ProbeProfileOpts(peers, opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]profile.Link{
		"diagonal":   {{From: 1, To: 1}},
		"from range": {{From: -1, To: 0}},
		"to range":   {{From: 0, To: 3}},
	}
	for name, dirs := range cases {
		if _, err := Reprobe(peers, pf, opts, 0.5, dirs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An empty aim set is the whole-mesh screen, the same as nil.
	rep, err := Reprobe(peers, pf, opts, 1000, []profile.Link{})
	if err != nil || rep.Screened != 3*2 {
		t.Errorf("empty aim set: %v, screened %+v; want the whole 3-rank mesh", err, rep)
	}
	if _, err := Reprobe(peers, profile.New("wrong", 5), opts, 0.5, []profile.Link{{From: 0, To: 1}}); err == nil {
		t.Error("mismatched profile accepted")
	}
	if _, err := Reprobe(peers, pf, opts, 0, []profile.Link{{From: 0, To: 1}}); err == nil {
		t.Error("non-positive tolerance accepted")
	}
}
