package netmpi

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"topobarrier/internal/faultnet"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/telemetry"
)

// probeSequential is the reference the phased probe is held against: the
// same programs on the same venue, one pair per phase — every pair in
// tournament order, measured to its budget before the next one starts.
func probeSequential(tb testing.TB, peers []*Peer, opts ProbeOptions) (*profile.Profile, time.Duration) {
	tb.Helper()
	opts = opts.withDefaults()
	p := len(peers)
	pf := profile.New("sequential-reference", p)
	run := phaseRunner(peers, opts, newProbeReport(p))
	m, err := probe.NewPrograms(liveConfig, p)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	for _, round := range probe.Rounds(p) {
		for _, pr := range round {
			err := m.Phases([]probe.Pair{pr}, opts.MaxIters, opts.StableK, run, func(i, j int, o, l float64, _ int) {
				pf.O.Set(i, j, o)
				if i != j {
					pf.L.Set(i, j, l)
					pf.O.Set(j, i, o)
					pf.L.Set(j, i, l)
				}
			})
			if err != nil {
				tb.Fatalf("probing %d→%d: %v", pr.I, pr.J, err)
			}
		}
	}
	return pf, time.Since(start)
}

// TestProbeProfileParallelMatchesSequential checks that the phased probe,
// every pair of a phase in tournament rounds, measures the same platform the
// one-pair-a-phase reference does, in MaxIters phases (no early stop) and
// with every pair measured. Loopback timings are noisy, so the comparison is
// order-of-magnitude: each direction's round-trip estimate (O+L) must be
// within a generous factor.
func TestProbeProfileParallelMatchesSequential(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	seq, _ := probeSequential(t, peers, ProbeOptions{MaxIters: 8})
	par, rep, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 8 || par.Provenance != nil || par.MeasuredPairs() != p*(p-1)/2 {
		t.Fatalf("parallel probe ran %d phases (provenance %+v, %d measured pairs), want 8 of a fully measured profile", rep.Rounds, par.Provenance, par.MeasuredPairs())
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			s := seq.O.At(i, j) + seq.L.At(i, j)
			q := par.O.At(i, j) + par.L.At(i, j)
			if s <= 0 || q <= 0 {
				t.Fatalf("non-positive estimate for %d→%d: seq %g, par %g", i, j, s, q)
			}
			if ratio := q / s; ratio > 20 || ratio < 1.0/20 {
				t.Errorf("direction %d→%d: parallel %.3gs vs sequential %.3gs (ratio %.1f)", i, j, q, s, ratio)
			}
		}
	}
}

// TestProbeProfileAdaptive checks the stable-K contract: when early stopping
// can fire, a pair takes at least StableK+1 and at most MaxIters phases; when
// StableK exceeds the cap, every pair takes exactly MaxIters. A pair's phases
// are credited to the direction that initiated it.
func TestProbeProfileAdaptive(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)

	for _, tc := range []struct {
		opts   ProbeOptions
		lo, hi int
	}{
		{ProbeOptions{MaxIters: 64, StableK: 2}, 3, 64},
		{ProbeOptions{MaxIters: 3, StableK: 50}, 3, 3},
	} {
		_, rep, err := ProbeProfileOpts(peers, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if n := rep.Samples[i][j]; n < tc.lo || n > tc.hi || rep.Samples[j][i] != 0 {
					t.Fatalf("%+v: pair (%d,%d) took %d samples (and %d credited to the echo direction), want in [%d, %d] and 0",
						tc.opts, i, j, n, rep.Samples[j][i], tc.lo, tc.hi)
				}
			}
		}
	}
}

// TestMeshFingerprintKeysOnBudgetAndSize pins the cache-key contract: the
// measurement budget, the rank count and the protocol are part of the key. A
// pure-TCP mesh keys as it did before hybrid transports existed, plus the
// protocol's Config key, so an entry measured with an earlier protocol
// misses instead of answering.
func TestMeshFingerprintKeysOnBudgetAndSize(t *testing.T) {
	mesh := func(p int) []*Peer {
		peers, err := LoopbackMesh(p, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { CloseMesh(peers) })
		return peers
	}
	two := mesh(2)
	base := MeshFingerprint(two, ProbeOptions{MaxIters: 8, StableK: 3})
	if want := profile.FingerprintOf("netmpi-loopback", "2", "iters=8,stablek=3", liveConfig.Key()); base != want {
		t.Fatalf("pure-TCP mesh fingerprint %s diverged from the pre-hybrid key plus the protocol's, %s", base, want)
	}
	if old := profile.FingerprintOf("netmpi-loopback", "2", "iters=8,stablek=3"); base == old {
		t.Fatal("the fingerprint does not key on the protocol: an entry measured with the ping-pong protocol would answer")
	}
	if got := MeshFingerprint(two, ProbeOptions{StableK: 3}); got != base {
		t.Fatalf("the default budget keys differently from its explicit value: %s vs %s", got, base)
	}
	if got := MeshFingerprint(two, ProbeOptions{MaxIters: 16, StableK: 3}); got == base {
		t.Fatal("MaxIters change kept the fingerprint")
	}
	if got := MeshFingerprint(mesh(3), ProbeOptions{MaxIters: 8, StableK: 3}); got == base {
		t.Fatal("rank-count change kept the fingerprint")
	}
}

// TestProbeProfileCachedHit checks the cache round trip: a miss probes and
// stores, a hit with no drift tolerance returns the stored profile
// bit-identically, and the telemetry counters record both outcomes.
func TestProbeProfileCachedHit(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	reg := telemetry.NewRegistry()
	cache := &profile.Cache{Dir: t.TempDir(), Reg: reg}
	opts := ProbeOptions{MaxIters: 6}

	pf1, _, hit, err := ProbeProfileCached(peers, opts, cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first probe reported a cache hit")
	}
	pf2, rep, hit, err := ProbeProfileCached(peers, opts, cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second probe missed the cache")
	}
	if rep.Rounds != 0 || rep.TotalSamples() != 0 {
		t.Fatalf("pure cache hit still probed: %d rounds, %d samples", rep.Rounds, rep.TotalSamples())
	}
	b1, _ := json.Marshal(pf1)
	b2, _ := json.Marshal(pf2)
	if string(b1) != string(b2) {
		t.Fatal("cached profile differs from the stored one")
	}
	if v := reg.Counter("probe_cache_hits_total").Value(); v != 1 {
		t.Fatalf("probe_cache_hits_total = %d, want 1", v)
	}
	if v := reg.Counter("probe_cache_misses_total").Value(); v != 1 {
		t.Fatalf("probe_cache_misses_total = %d, want 1", v)
	}
}

// TestProbeProfileCachedRevalidation drives the outcomes of the cache's
// re-check through Reprobe: a single tampered link is confirmed at the full
// budget and patched in place, alone (still a hit); tampering every sampled
// direction condemns the whole entry and triggers a full re-probe (a miss);
// and a link whose screen was misled by delayed frames, but whose
// full-budget measurement is clean, keeps its entry bit for bit.
func TestProbeProfileCachedRevalidation(t *testing.T) {
	const p = 4
	peers, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(peers)
	opts := ProbeOptions{MaxIters: 6}
	fp := MeshFingerprint(peers, opts)

	t.Run("patch-stale-link", func(t *testing.T) {
		cache := &profile.Cache{Dir: t.TempDir()}
		pf, _, _, err := ProbeProfileCached(peers, opts, cache, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Round 0 of the tournament samples pairs (0,3) and (1,2); blow up
		// one sampled direction far past any plausible drift tolerance.
		tampered := pf.O.At(0, 3) * 1000
		pf.O.Set(0, 3, tampered)
		if err := cache.Store(fp, pf); err != nil {
			t.Fatal(err)
		}
		got, rep, hit, err := ProbeProfileCached(peers, opts, cache, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatal("one stale link among four sampled directions should not condemn the entry")
		}
		if want := (profile.Link{From: 0, To: 3}); rep.Screened != 4 || len(rep.Stale) != 1 || rep.Stale[0] != want {
			t.Fatalf("screened %d, stale %v; want 4 and exactly [%s]", rep.Screened, rep.Stale, want)
		}
		if got.O.At(0, 3) >= tampered/10 {
			t.Fatalf("stale direction not patched: O(0,3) = %g, tampered value %g", got.O.At(0, 3), tampered)
		}
		for _, d := range [][2]int{{3, 0}, {1, 2}, {2, 1}} {
			if got.O.At(d[0], d[1]) != pf.O.At(d[0], d[1]) || got.L.At(d[0], d[1]) != pf.L.At(d[0], d[1]) {
				t.Errorf("untampered %d→%d was rewritten", d[0], d[1])
			}
		}
		// The patch must persist: a subsequent no-revalidation hit sees it.
		again, _, hit, err := ProbeProfileCached(peers, opts, cache, 0)
		if err != nil || !hit {
			t.Fatalf("re-load after patch: hit=%v err=%v", hit, err)
		}
		if again.O.At(0, 3) >= tampered/10 {
			t.Fatal("patched entry was not re-stored")
		}
		// And the re-store wrote a well-formed envelope under the same
		// fingerprint: the entry still audits against its filename and
		// carries a fresh save time — a patched profile must be a
		// first-class cache citizen, not a side-channel mutation.
		raw, err := os.ReadFile(cache.Path(fp))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Fingerprint string `json:"fingerprint"`
			SavedAt     string `json:"saved_at"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatal(err)
		}
		if envelope.Fingerprint != string(fp) {
			t.Fatalf("re-stored entry carries fingerprint %q, want %q", envelope.Fingerprint, fp)
		}
		if _, err := time.Parse(time.RFC3339, envelope.SavedAt); err != nil {
			t.Fatalf("re-stored entry's save time %q is not RFC3339: %v", envelope.SavedAt, err)
		}
	})

	t.Run("reprobe-when-most-stale", func(t *testing.T) {
		cache := &profile.Cache{Dir: t.TempDir()}
		pf, _, _, err := ProbeProfileCached(peers, opts, cache, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range [][2]int{{0, 3}, {3, 0}, {1, 2}, {2, 1}} {
			pf.O.Set(d[0], d[1], pf.O.At(d[0], d[1])*1000)
		}
		if err := cache.Store(fp, pf); err != nil {
			t.Fatal(err)
		}
		got, rep, hit, err := ProbeProfileCached(peers, opts, cache, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("an entry with every sampled direction stale still counted as a hit")
		}
		if rep.Rounds != opts.MaxIters || got.MeasuredPairs() != p*(p-1)/2 {
			t.Fatalf("full re-probe ran %d phases and measured %d pairs, want %d phases of all %d", rep.Rounds, got.MeasuredPairs(), opts.MaxIters, p*(p-1)/2)
		}
		if got.O.At(0, 3) >= pf.O.At(0, 3)/10 {
			t.Fatal("re-probed profile kept the tampered value")
		}
	})

	t.Run("misled-screen", func(t *testing.T) {
		// Rank 0 initiates pair (0,3). A phase of its protocol writes a
		// handshake, one frame a batched signal and one a size on that link,
		// so the priming probe's MaxIters phases write the first frames, and
		// the re-check's screen (a handshake and a round trip a phase) the
		// next four.
		const delay = 2 * time.Millisecond
		primed := opts.MaxIters * (1 + len(liveConfig.Sizes))
		for _, b := range liveConfig.Batches {
			primed += opts.MaxIters * b
		}
		held := faultnet.Script{}
		for f := primed; f < primed+2*screenPhases; f++ {
			held[f] = faultnet.Action{Op: faultnet.Delay, Delay: delay}
		}
		misled := rank0Faulted(t, p, func(src int) faultnet.Injector {
			if src == 3 {
				return held
			}
			return nil
		})
		cache := &profile.Cache{Dir: t.TempDir()}
		pf, _, _, err := ProbeProfileCached(misled, opts, cache, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, hit, err := ProbeProfileCached(misled, opts, cache, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || rep.Screened != 4 {
			t.Fatalf("hit=%v, screened %d; want a hit that screened 4 directions", hit, rep.Screened)
		}
		if n := rep.Samples[0][3]; n != 2+opts.MaxIters {
			t.Fatalf("pair (0,3) took %d phases, want the 2-phase screen plus a %d-phase re-measure: the delayed screen did not flag it", n, opts.MaxIters)
		}
		if len(rep.Stale) != 0 {
			t.Fatalf("stale %v on a link whose full-budget measurement was clean", rep.Stale)
		}
		b1, _ := json.Marshal(pf)
		b2, _ := json.Marshal(got)
		if string(b1) != string(b2) {
			t.Fatal("a screen false positive rewrote the cached entry")
		}
	})
}

// TestProbeProfileFaultSurfacesFast is the regression for the probe's error
// slow path: when a pair's link fails, the failure latches both peers, which
// fails the probe programs waiting on it at once, so the error surfaces in
// far less than the receive deadline and names the pair. At P = 4 the
// severed links are rank 1's, whose first pair (1, 2) breaks in the first
// tournament round while ranks 0 and 3 have later pairs with ranks 1 and 2:
// the failed programs abort theirs, so they do not wait out the deadline.
func TestProbeProfileFaultSurfacesFast(t *testing.T) {
	const deadline = 5 * time.Second
	for _, tc := range []struct {
		p, faultRank int
		pair         string
	}{{2, 0, "0→1"}, {4, 1, "1→2"}} {
		peers := faultMesh(t, tc.p, tc.faultRank, func() faultnet.Injector { return faultnet.SeverAt(0) })
		start := time.Now()
		_, _, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: 8, Deadline: deadline})
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("P=%d: probing a severed mesh succeeded", tc.p)
		}
		if !strings.Contains(err.Error(), tc.pair) {
			t.Fatalf("P=%d: error does not name the failing pair %s: %v", tc.p, tc.pair, err)
		}
		if elapsed > deadline/2 {
			t.Fatalf("P=%d: fault took %v to surface with a %v deadline — probe stalled on the slow path", tc.p, elapsed, deadline)
		}
		for _, pe := range peers {
			pe.Close()
		}
	}
	checkNoReaderLeak(t)
}

// TestProbeCacheCrossTransportIsolation is the cache-poisoning audit of the
// hybrid transport path: a profile measured over a hybrid mesh must never
// answer a cache lookup for a pure-TCP mesh of the same rank count and probe
// budget, nor the reverse, nor a hybrid mesh of a different co-location
// shape. The transport signature is part of the mesh fingerprint precisely
// because the O/L class structure is the thing that differs between them —
// a poisoned entry would hand the tuner the wrong platform.
func TestProbeCacheCrossTransportIsolation(t *testing.T) {
	const p = 4
	opts := ProbeOptions{MaxIters: 3, StableK: 2}
	tcp, err := LoopbackMesh(p, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMesh(tcp)
	twoNode := hybridMesh(t, p, twoNodes(p))
	oneNodeMesh := hybridMesh(t, p, oneNode(p))

	fpTCP := MeshFingerprint(tcp, opts)
	fpTwo := MeshFingerprint(twoNode, opts)
	fpOne := MeshFingerprint(oneNodeMesh, opts)
	if fpTCP == fpTwo || fpTCP == fpOne {
		t.Fatalf("hybrid mesh shares a cache slot with pure TCP: tcp=%s two-node=%s one-node=%s", fpTCP, fpTwo, fpOne)
	}
	if fpTwo == fpOne {
		t.Fatalf("different co-location shapes share a cache slot: %s", fpTwo)
	}

	// Prime the cache from the two-node hybrid mesh, then look up the other
	// meshes through the same cache: each first lookup must be a miss (a
	// fresh measurement), never a cross-transport hit.
	cache := &profile.Cache{Dir: t.TempDir()}
	if _, _, hit, err := ProbeProfileCached(twoNode, opts, cache, 0); err != nil || hit {
		t.Fatalf("priming probe: hit=%v err=%v", hit, err)
	}
	pfTCP, _, hit, err := ProbeProfileCached(tcp, opts, cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a hybrid-measured profile answered for a pure-TCP mesh")
	}
	if !strings.HasPrefix(pfTCP.Platform, "netmpi-loopback") {
		t.Fatalf("TCP mesh probe produced platform %q", pfTCP.Platform)
	}
	if _, _, hit, err := ProbeProfileCached(oneNodeMesh, opts, cache, 0); err != nil || hit {
		t.Fatalf("one-node lookup against two-node/TCP entries: hit=%v err=%v", hit, err)
	}

	// With all three slots warm, every mesh hits — its own slot.
	for _, m := range []struct {
		name  string
		peers []*Peer
		plat  string
	}{
		{"tcp", tcp, "netmpi-loopback"},
		{"two-node", twoNode, "netmpi-hybrid"},
		{"one-node", oneNodeMesh, "netmpi-hybrid"},
	} {
		pf, _, hit, err := ProbeProfileCached(m.peers, opts, cache, 0)
		if err != nil || !hit {
			t.Fatalf("%s mesh missed its own warm slot: hit=%v err=%v", m.name, hit, err)
		}
		if !strings.HasPrefix(pf.Platform, m.plat) {
			t.Fatalf("%s mesh loaded platform %q", m.name, pf.Platform)
		}
	}
}
