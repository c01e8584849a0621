package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topobarrier/internal/telemetry"
)

// cacheProfile builds a small valid profile with distinguishable entries.
func cacheProfile(p int, scale float64) *Profile {
	pf := New("cache-test", p)
	for i := 0; i < p; i++ {
		pf.O.Set(i, i, 1e-6*scale)
		for j := 0; j < p; j++ {
			if i != j {
				pf.O.Set(i, j, 2e-6*scale)
				pf.L.Set(i, j, 5e-6*scale)
			}
		}
	}
	return pf
}

func TestFingerprintOfIsLengthDelimited(t *testing.T) {
	if FingerprintOf("ab", "c") == FingerprintOf("a", "bc") {
		t.Fatal("part boundaries do not affect the fingerprint")
	}
	if FingerprintOf("x", "y") != FingerprintOf("x", "y") {
		t.Fatal("fingerprint is not deterministic")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, hit, err := c.Load(FingerprintOf("x")); hit || err != nil {
		t.Fatalf("nil cache Load: hit=%v err=%v", hit, err)
	}
	if err := c.Store(FingerprintOf("x"), cacheProfile(3, 1)); err != nil {
		t.Fatalf("nil cache Store: %v", err)
	}
	if infos, err := c.List(); infos != nil || err != nil {
		t.Fatalf("nil cache List: %v %v", infos, err)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := &Cache{Dir: filepath.Join(t.TempDir(), "nested", "cache"), Reg: reg}
	fp := FingerprintOf("platform", "p=3")

	if _, hit, err := c.Load(fp); hit || err != nil {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	pf := cacheProfile(3, 1)
	if err := c.Store(fp, pf); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.Load(fp)
	if err != nil || !hit {
		t.Fatalf("Load after Store: hit=%v err=%v", hit, err)
	}
	b1, _ := json.Marshal(pf)
	b2, _ := json.Marshal(got)
	if string(b1) != string(b2) {
		t.Fatal("cached profile differs from the stored one")
	}
	if v := reg.Counter("probe_cache_hits_total").Value(); v != 1 {
		t.Fatalf("hits counter = %d, want 1", v)
	}
	if v := reg.Counter("probe_cache_misses_total").Value(); v != 1 {
		t.Fatalf("misses counter = %d, want 1", v)
	}
}

func TestCacheRejectsCorruptAndMislabelledEntries(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	fp := FingerprintOf("a")

	if err := os.WriteFile(c.Path(fp), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(fp); hit || err == nil {
		t.Fatalf("corrupt entry: hit=%v err=%v", hit, err)
	}

	// A valid entry renamed to another fingerprint's slot must not load:
	// the embedded fingerprint is the audit trail.
	other := FingerprintOf("b")
	if err := c.Store(other, cacheProfile(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.Path(other), c.Path(fp)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(fp); hit || err == nil {
		t.Fatalf("mislabelled entry: hit=%v err=%v", hit, err)
	}

	// A matching fingerprint over a null profile is named as such, and a
	// ragged matrix is a decode error, not a panic.
	for want, body := range map[string]string{
		"holds no profile": `null`,
		"row 1":            `{"platform":"x","p":2,"o":[[0,1],[0]],"l":[[0,1],[1,0]]}`,
	} {
		entry := fmt.Sprintf(`{"fingerprint":%q,"profile":%s}`, fp, body)
		if err := os.WriteFile(c.Path(fp), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.Load(fp); hit || err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("entry with profile %s: hit=%v err=%v, want %q", body, hit, err, want)
		}
	}
}

// FuzzProfileCacheEntry feeds arbitrary bytes to the cache as an entry file:
// Load must answer miss-or-error without panicking, and whatever it does
// accept must be a valid profile.
func FuzzProfileCacheEntry(f *testing.F) {
	fp := FingerprintOf("fuzz")
	good, err := json.Marshal(cacheEntry{Fingerprint: string(fp), Profile: cacheProfile(3, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(fmt.Appendf(nil, `{"fingerprint":%q,"profile":null}`, fp))
	f.Add(fmt.Appendf(nil, `{"fingerprint":%q,"profile":{"platform":"x","p":2,"o":[[0,1],[0]],"l":[[0,1],[1,0]]}}`, fp))
	f.Add(fmt.Appendf(nil, `{"fingerprint":%q,"profile":{"p":-1,"o":[],"l":[]}}`, fp))
	f.Add([]byte(`{not json`))
	sparse, err := json.Marshal(cacheEntry{Fingerprint: string(fp), Profile: sparseSample()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sparse)
	c := &Cache{Dir: f.TempDir()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.Path(fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		pf, hit, err := c.Load(fp)
		if hit != (err == nil) {
			t.Fatalf("present entry: hit=%v err=%v", hit, err)
		}
		if hit {
			if err := pf.Validate(); err != nil {
				t.Fatalf("Load accepted an invalid profile: %v", err)
			}
		}
		if _, err := c.List(); err != nil {
			t.Fatalf("List failed on a corrupt entry: %v", err)
		}
	})
}

func TestCacheStoreRejectsInvalidProfile(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	bad := cacheProfile(3, 1)
	bad.O.Set(0, 1, -1)
	if err := c.Store(FingerprintOf("bad"), bad); err == nil {
		t.Fatal("stored an invalid profile")
	}
}

func TestCacheListAndLoadLatest(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	fpA, fpB := FingerprintOf("first"), FingerprintOf("second")
	if err := c.Store(fpA, cacheProfile(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(fpB, cacheProfile(4, 2)); err != nil {
		t.Fatal(err)
	}
	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(infos))
	}

	pf, fp, ok, err := c.LoadLatest(string(fpA)[:4])
	if err != nil || !ok {
		t.Fatalf("LoadLatest by prefix: ok=%v err=%v", ok, err)
	}
	if fp != fpA || pf.P != 3 {
		t.Fatalf("LoadLatest by prefix returned %s (P=%d), want %s (P=3)", fp, pf.P, fpA)
	}
	if _, _, ok, err := c.LoadLatest("zzzz-no-such-prefix"); ok || err != nil {
		t.Fatalf("LoadLatest with unmatched prefix: ok=%v err=%v", ok, err)
	}
	// Without a prefix some entry loads; both carry distinct save times or
	// tie-break deterministically, so the call must succeed.
	if _, _, ok, err := c.LoadLatest(""); !ok || err != nil {
		t.Fatalf("LoadLatest without prefix: ok=%v err=%v", ok, err)
	}
}

// writeEntry plants a cache entry with a controlled save time — List's order
// contract can only be pinned with deterministic timestamps.
func writeEntry(t *testing.T, c *Cache, fp Fingerprint, pf *Profile, savedAt string) {
	t.Helper()
	data, err := json.Marshal(cacheEntry{Fingerprint: string(fp), SavedAt: savedAt, Profile: pf})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(fp), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheListOrderAndTieBreak pins List's order: newest save time first,
// and entries saved in the same instant ordered by fingerprint — the
// tie-break that makes LoadLatest deterministic when a burst of probes lands
// within one timestamp granule.
func TestCacheListOrderAndTieBreak(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	fpOld := FingerprintOf("old")
	fpTieA, fpTieB := FingerprintOf("tie-a"), FingerprintOf("tie-b")
	if fpTieB < fpTieA {
		fpTieA, fpTieB = fpTieB, fpTieA
	}
	writeEntry(t, c, fpOld, cacheProfile(3, 1), "2026-08-07T10:00:00Z")
	writeEntry(t, c, fpTieB, cacheProfile(4, 2), "2026-08-08T10:00:00Z")
	writeEntry(t, c, fpTieA, cacheProfile(5, 3), "2026-08-08T10:00:00Z")

	for round := 0; round < 3; round++ {
		infos, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 3 {
			t.Fatalf("List returned %d entries, want 3", len(infos))
		}
		if infos[0].Fingerprint != fpTieA || infos[1].Fingerprint != fpTieB || infos[2].Fingerprint != fpOld {
			t.Fatalf("round %d: List order %v, want [%s %s %s]", round,
				[]Fingerprint{infos[0].Fingerprint, infos[1].Fingerprint, infos[2].Fingerprint}, fpTieA, fpTieB, fpOld)
		}
	}

	// LoadLatest follows the same order: the tied pair resolves to the
	// lexicographically smaller fingerprint, never the older entry.
	pf, fp, ok, err := c.LoadLatest("")
	if err != nil || !ok {
		t.Fatalf("LoadLatest: ok=%v err=%v", ok, err)
	}
	if fp != fpTieA || pf.P != 5 {
		t.Fatalf("LoadLatest picked %s (P=%d), want %s (P=5)", fp, pf.P, fpTieA)
	}
}

// TestCacheListSkipsCorruptAndRenamedEntries pins the degraded-directory
// behaviour: a truncated entry and an entry whose file was renamed away from
// its embedded fingerprint must not break List, and LoadLatest must fall
// through them to the newest loadable entry.
func TestCacheListSkipsCorruptAndRenamedEntries(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	fpGood := FingerprintOf("good")
	writeEntry(t, c, fpGood, cacheProfile(3, 1), "2026-08-07T10:00:00Z")

	// Corrupt: newer than the good entry, but not JSON.
	if err := os.WriteFile(filepath.Join(c.Dir, "deadbeef.profile.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Renamed: a valid, newest envelope stored under the wrong filename. List
	// reports its embedded fingerprint, but loading that fingerprint resolves
	// to a file that does not exist — LoadLatest must skip it.
	fpMoved := FingerprintOf("moved")
	writeEntry(t, c, fpMoved, cacheProfile(4, 2), "2026-08-08T10:00:00Z")
	if err := os.Rename(c.Path(fpMoved), filepath.Join(c.Dir, "0123456789abcdef.profile.json")); err != nil {
		t.Fatal(err)
	}

	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List returned %d entries, want 2 (corrupt file skipped)", len(infos))
	}
	pf, fp, ok, err := c.LoadLatest("")
	if err != nil || !ok {
		t.Fatalf("LoadLatest: ok=%v err=%v", ok, err)
	}
	if fp != fpGood || pf.P != 3 {
		t.Fatalf("LoadLatest returned %s (P=%d), want the intact entry %s (P=3)", fp, pf.P, fpGood)
	}

	// Prefix narrowing still works through the degraded directory, and a
	// prefix matching only the renamed entry finds nothing loadable.
	if _, fp, ok, _ := c.LoadLatest(string(fpGood)[:6]); !ok || fp != fpGood {
		t.Fatalf("prefix narrowing: ok=%v fp=%s", ok, fp)
	}
	if _, _, ok, err := c.LoadLatest(string(fpMoved)[:6]); ok || err != nil {
		t.Fatalf("renamed-only prefix: ok=%v err=%v", ok, err)
	}
}
