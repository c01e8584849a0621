package netmpi

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/profile"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
)

// The live probe measures every pair, in phases of one repetition each:
// with no early stop, MaxIters phases, each pair's credited to the rank that
// initiated it, and nothing estimated.
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
	if rep.Rounds != 3 || pf.Provenance != nil || pf.MeasuredPairs() != p*(p-1)/2 {
		t.Fatalf("%d phases, provenance %+v, %d measured pairs; want 3 phases of a fully measured profile", rep.Rounds, pf.Provenance, pf.MeasuredPairs())
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rep.Samples[i][j] != 3 || rep.Samples[j][i] != 0 {
				t.Fatalf("pair (%d,%d): %d phases to the initiator, %d to the other direction; want 3 and 0", i, j, rep.Samples[i][j], rep.Samples[j][i])
			}
		}
	}
	if got := rep.TotalSamples(); got != 3*p*(p-1)/2 {
		t.Fatalf("TotalSamples = %d, want 3 phases per pair (%d)", got, 3*p*(p-1)/2)
	}
}

// Above 16 ranks, where the simulator's probe turns to the hierarchy, the live
// one still measures every pair: a phase costs what its busiest rank's pairs
// cost, and no star-based survey is cheaper in phases. Pinned on a flat mesh
// (one link class: a first-fit survey founds a centre per rank there) and on
// a 3 × 8 hybrid one, whose probed profile clusters at depth 1 into the nodes.
func TestLiveProbeRoundsAbove16(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive probe, skipped in -short")
	}
	const p, per = 24, 8
	opts := ProbeOptions{MaxIters: 8, StableK: 3}
	nodes := make([]int, p)
	for r := range nodes {
		nodes[r] = r / per
	}
	for name, colocate := range map[string][]int{"flat": nil, "hybrid": nodes} {
		peers := delayHybridMesh(t, p, colocate, time.Millisecond)
		pf, rep, err := ProbeProfileOpts(peers, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d pairs in %d phases, %d samples, %v", name, pf.MeasuredPairs(), rep.Rounds, rep.TotalSamples(), rep.Elapsed.Round(time.Millisecond))
		if rep.Rounds <= opts.StableK || rep.Rounds > opts.MaxIters || pf.Provenance != nil || pf.MeasuredPairs() != p*(p-1)/2 {
			t.Fatalf("%s: %d phases (provenance %+v, %d measured pairs), want %d to %d of all pairs, all measured",
				name, rep.Rounds, pf.Provenance, pf.MeasuredPairs(), opts.StableK+1, opts.MaxIters)
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if n := rep.Samples[i][j]; n <= opts.StableK || n > opts.MaxIters || rep.Samples[j][i] != 0 {
					t.Fatalf("%s: pair (%d,%d) took %d + %d phases, want %d to %d credited to the initiator", name, i, j, n, rep.Samples[j][i], opts.StableK+1, opts.MaxIters)
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

// A pair's fit is symmetric and the delay of an initiator's frames is its
// L: faultnet delays the frames the accepting side of a connection writes,
// which in every pair of delayMesh is the lower rank, the one whose batches
// the L sweep times. So a batch of two costs one more delay than a batch of
// one, and both directions of a pair read the same O+L, at least half the
// delayed round trip.
func TestLiveProbeSymmetricWithDelayInL(t *testing.T) {
	const p, d = 4, 2 * time.Millisecond
	peers := delayMesh(t, p, d)
	pf, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalSamples(); got != 4*p*(p-1)/2 {
		t.Fatalf("TotalSamples = %d, want 4 phases per pair", got)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			fwd, back := pf.O.At(i, j)+pf.L.At(i, j), pf.O.At(j, i)+pf.L.At(j, i)
			if fwd != back {
				t.Errorf("pair (%d,%d): O+L %.0fµs one way, %.0fµs the other; want one symmetric fit", i, j, fwd*1e6, back*1e6)
			}
			if fwd < d.Seconds()/2 {
				t.Errorf("pair (%d,%d): O+L = %.0fµs, want at least half the delayed round trip (%v)", i, j, fwd*1e6, d/2)
			}
			if l := pf.L.At(i, j); l < d.Seconds()/2 {
				t.Errorf("pair (%d,%d): L = %.0fµs, want the initiator's per-frame delay (%v) in it", i, j, l*1e6, d)
			}
		}
	}
}

// TestProbeBesideBarriers: the probe runs on each rank's probe cursor, so a
// whole-mesh probe and an aimed re-probe run while every rank runs
// EpochRunner barriers on the same peers, and they are not barrier traffic:
// on a traced, metered mesh the barrier.stage spans and the
// netmpi_stage_seconds observations are exactly the barriers' steps, and no
// barrier span carries a probe tag.
func TestProbeBesideBarriers(t *testing.T) {
	const p, perRound = 4, 10
	pl := tunedPlan(t, p)
	steps := 0
	for r := 0; r < p; r++ {
		steps += len(pl.RankOps(r))
	}
	for _, tc := range executorShapes {
		t.Run(tc.name, func(t *testing.T) {
			tracer, reg := telemetry.NewTracer(), telemetry.NewRegistry()
			tracer.SetCap(1 << 20)
			peers := hybridMesh(t, p, tc.nodes(p), WithTracer(tracer), WithTelemetry(reg))
			eps, err := NewEpochs(pl)
			if err != nil {
				t.Fatal(err)
			}
			runners := make([]*EpochRunner, p)
			for r := range runners {
				if runners[r], err = NewEpochRunner(peers[r], eps, 0); err != nil {
					t.Fatal(err)
				}
			}
			probed := make(chan error, 1)
			go func() {
				opts := ProbeOptions{MaxIters: 3, StableK: 2, Deadline: 10 * time.Second}
				pf, _, err := ProbeProfileOpts(peers, opts)
				if err == nil {
					_, err = Reprobe(peers, pf, opts, 1000, []profile.Link{{From: 0, To: 1}, {From: 3, To: 2}})
				}
				probed <- err
			}()
			rounds := 0
			for running := true; running; rounds++ {
				select {
				case err := <-probed:
					if err != nil {
						t.Fatal(err)
					}
					running = false
				default:
				}
				var wg sync.WaitGroup
				errs := make([]error, p)
				for r, rn := range runners {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perRound && errs[r] == nil; i++ {
							errs[r] = rn.Barrier(10 * time.Second)
						}
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
			}
			stages, observed := 0, int64(0)
			for _, e := range tracer.Events() {
				switch {
				case !strings.HasPrefix(e.Name, "barrier."):
				case e.Tag >= probeTagBase:
					t.Fatalf("barrier span %+v carries a probe tag", e)
				case strings.HasPrefix(e.Name, "barrier.stage"):
					stages++
				}
			}
			for r := 0; r < p; r++ {
				observed += reg.Histogram(telemetry.Label("netmpi_stage_seconds", "rank", strconv.Itoa(r)), nil).Count()
			}
			if want := rounds * perRound * steps; stages != want || observed != int64(want) || tracer.Dropped() != 0 {
				t.Fatalf("%d stage spans and %d stage observations (%d spans dropped) for %d barrier steps", stages, observed, tracer.Dropped(), want)
			}
			t.Logf("%d barriers beside the probe and re-probe", rounds*perRound)
		})
	}
}
