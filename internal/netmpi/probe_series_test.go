package netmpi

import (
	"testing"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/sss"
)

// The live probe is the all-pairs tournament: probe.Rounds(8), one joined
// round each; each pair is one series, credited to the rank that initiated it,
// and nothing is estimated.
func TestLiveProbeP8IsTheTournament(t *testing.T) {
	const p = 8
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	pf, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != len(probe.Rounds(p)) || pf.Provenance != nil || pf.MeasuredPairs() != p*(p-1)/2 {
		t.Fatalf("%d rounds, provenance %+v, %d measured pairs; want %d rounds of a fully measured profile", rep.Rounds, pf.Provenance, pf.MeasuredPairs(), p-1)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rep.Samples[i][j] != 3 || rep.Samples[j][i] != 0 {
				t.Fatalf("pair (%d,%d): %d samples to the initiator, %d to the echo; want 3 and 0", i, j, rep.Samples[i][j], rep.Samples[j][i])
			}
		}
	}
	if got := rep.TotalSamples(); got != 3*p*(p-1)/2 {
		t.Fatalf("TotalSamples = %d, want one 3-sample series per pair (%d)", got, 3*p*(p-1)/2)
	}
}

// Above 16 ranks, where the simulator's probe turns to the hierarchy, the live
// one stays the tournament: its wall-clock is joined rounds, and no star-based
// survey fits in the P−1 rounds all pairs take. Pinned on a flat mesh (one
// link class: a first-fit survey founds a centre per rank there) and on a
// 3 × 8 hybrid one, whose probed profile clusters at depth 1 into the nodes.
func TestLiveProbeRoundsAbove16(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive probe, skipped in -short")
	}
	const p, per = 24, 8
	nodes := make([]int, p)
	for r := range nodes {
		nodes[r] = r / per
	}
	for name, colocate := range map[string][]int{"flat": nil, "hybrid": nodes} {
		peers := delayHybridMesh(t, p, colocate, time.Millisecond)
		pf, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 8, StableK: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d pairs in %d rounds, %d samples, %v", name, pf.MeasuredPairs(), rep.Rounds, rep.TotalSamples(), rep.Elapsed.Round(time.Millisecond))
		if rep.Rounds != p-1 || pf.Provenance != nil {
			t.Fatalf("%s: %d rounds (provenance %+v), want the %d of all pairs, all measured", name, rep.Rounds, pf.Provenance, p-1)
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if rep.Samples[i][j] == 0 || rep.Samples[j][i] != 0 {
					t.Fatalf("%s: pair (%d,%d) took %d + %d samples, want one series", name, i, j, rep.Samples[i][j], rep.Samples[j][i])
				}
			}
		}
		if colocate == nil {
			continue
		}
		want := "[[0 1 2 3 4 5 6 7] [8 9 10 11 12 13 14 15] [16 17 18 19 20 21 22 23]]"
		if got := sss.Tree(pf, sss.Options{MaxDepth: 1}).String(); got != want {
			t.Fatalf("depth-1 clusters %s, want the co-location %s", got, want)
		}
	}
}

// One series yields both directions: faultnet delays the frames the accepting
// side of a connection writes, so that side's Send is slow (O ≫) and the
// dialling side's is not, and both directions' L come off the one minimum
// round trip — the dialling direction's O+L is half of it, the accepting
// direction's L is clamped at 0 under an O that alone exceeds it.
func TestOneSeriesYieldsBothDirections(t *testing.T) {
	const p, d = 4, 2 * time.Millisecond
	peers := delayMesh(t, p, d)
	pf, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalSamples(); got != 4*p*(p-1)/2 {
		t.Fatalf("TotalSamples = %d, want one 4-sample series per pair", got)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			acc, dial := [2]int{i, j}, [2]int{j, i}
			if pf.O.At(i, j) < pf.O.At(j, i) {
				acc, dial = dial, acc
			}
			oAcc, lAcc := pf.O.At(acc[0], acc[1]), pf.L.At(acc[0], acc[1])
			oDial, sumDial := pf.O.At(dial[0], dial[1]), pf.O.At(dial[0], dial[1])+pf.L.At(dial[0], dial[1])
			if oAcc < d.Seconds() || oDial > d.Seconds()/4 || lAcc != 0 {
				t.Errorf("pair (%d,%d): O %v→ %.0fµs (L %.0fµs), O %v→ %.0fµs; want the delayed side ≥ %v with L clamped at 0, the other ≪",
					i, j, acc, oAcc*1e6, lAcc*1e6, dial, oDial*1e6, d)
			}
			if sumDial < d.Seconds()/2 || sumDial > 0.75*oAcc {
				t.Errorf("pair (%d,%d): O+L %v→ = %.0fµs, want half the shared round trip (≈ %.0fµs)", i, j, dial, sumDial*1e6, oAcc*1e6/2)
			}
		}
	}
}
