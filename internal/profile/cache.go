package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"topobarrier/internal/telemetry"
)

// Fingerprint identifies the topology and probe configuration a profile was
// measured under: same fingerprint ⇒ the cached profile is interchangeable
// with a fresh measurement (modulo drift, which callers can re-validate).
type Fingerprint string

// FingerprintOf hashes the given parts — platform identity, rank count,
// probe configuration, peer addresses or fabric spec — into a stable short
// fingerprint. Parts are length-delimited before hashing, so no two
// distinct part lists collide by concatenation.
func FingerprintOf(parts ...string) Fingerprint {
	h := sha256.New()
	for _, s := range parts {
		fmt.Fprintf(h, "%d:", len(s))
		io.WriteString(h, s)
	}
	return Fingerprint(hex.EncodeToString(h.Sum(nil))[:16])
}

// Cache is a directory of profiles keyed by fingerprint. It decouples the
// expensive measurement phase from every consumer (Figure 1's profiling box
// runs once, not once per tune): a warm profile loads in microseconds where
// a fresh probe costs O(P) network rounds. A nil *Cache misses every Load
// and drops every Store, so "no cache" needs no branches in callers.
type Cache struct {
	// Dir is the cache directory; Store creates it on demand.
	Dir string
	// Reg, when non-nil, counts probe_cache_hits_total and
	// probe_cache_misses_total.
	Reg *telemetry.Registry
}

// cacheEntry is the on-disk envelope: the fingerprint rides along so an
// entry can be audited (and a renamed file detected) without recomputing it.
type cacheEntry struct {
	Fingerprint string   `json:"fingerprint"`
	SavedAt     string   `json:"saved_at"`
	Profile     *Profile `json:"profile"`
}

// Path returns the file a fingerprint maps to.
func (c *Cache) Path(fp Fingerprint) string {
	return filepath.Join(c.Dir, string(fp)+".profile.json")
}

// Load returns the cached profile for fp, reporting a hit. A missing entry
// is a miss with a nil error; a present-but-unreadable entry is a miss with
// the decode error, so callers can fall back to measuring while surfacing
// the corruption.
func (c *Cache) Load(fp Fingerprint) (*Profile, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	data, err := os.ReadFile(c.Path(fp))
	if err != nil {
		c.Reg.Counter("probe_cache_misses_total").Inc()
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	var e cacheEntry
	err = json.Unmarshal(data, &e)
	switch {
	case err != nil:
	case e.Fingerprint != string(fp):
		err = fmt.Errorf("carries fingerprint %q, want %q", e.Fingerprint, fp)
	case e.Profile == nil:
		err = errors.New("holds no profile")
	default:
		err = e.Profile.Validate()
	}
	if err != nil {
		c.Reg.Counter("probe_cache_misses_total").Inc()
		return nil, false, fmt.Errorf("profile: cache entry %s: %w", c.Path(fp), err)
	}
	c.Reg.Counter("probe_cache_hits_total").Inc()
	return e.Profile, true, nil
}

// Store writes pf under fp, creating the cache directory if needed. The
// write is atomic (temp file + rename) so a concurrent Load never observes
// a torn entry.
func (c *Cache) Store(fp Fingerprint, pf *Profile) error {
	if c == nil {
		return nil
	}
	if err := pf.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cacheEntry{
		Fingerprint: string(fp),
		SavedAt:     time.Now().UTC().Format(time.RFC3339),
		Profile:     pf,
	}, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, string(fp)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.Path(fp))
}

// EntryInfo describes one cache entry without loading its matrices.
type EntryInfo struct {
	Fingerprint Fingerprint
	Platform    string
	P           int
	SavedAt     string
}

// List returns the cache's entries, newest first (by recorded save time,
// ties broken by fingerprint for determinism). Unreadable files are skipped.
func (c *Cache) List() ([]EntryInfo, error) {
	if c == nil {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(c.Dir, "*.profile.json"))
	if err != nil {
		return nil, err
	}
	var out []EntryInfo
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var e cacheEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Profile == nil {
			continue
		}
		out = append(out, EntryInfo{
			Fingerprint: Fingerprint(e.Fingerprint),
			Platform:    e.Profile.Platform,
			P:           e.Profile.P,
			SavedAt:     e.SavedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SavedAt != out[j].SavedAt {
			return out[i].SavedAt > out[j].SavedAt
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}

// LoadLatest returns the newest cache entry, for callers (tunebarrier) that
// want "whatever was profiled most recently" rather than a specific
// fingerprint. An optional prefix narrows the candidates.
func (c *Cache) LoadLatest(prefix string) (*Profile, Fingerprint, bool, error) {
	infos, err := c.List()
	if err != nil {
		return nil, "", false, err
	}
	for _, info := range infos {
		if prefix != "" && !strings.HasPrefix(string(info.Fingerprint), prefix) {
			continue
		}
		pf, ok, err := c.Load(info.Fingerprint)
		if err != nil || !ok {
			continue
		}
		return pf, info.Fingerprint, true, nil
	}
	return nil, "", false, nil
}
