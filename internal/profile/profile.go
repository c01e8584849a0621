// Package profile defines the topological profile of a platform: the paper's
// O and L matrices (§IV), their persistence format, and the metric-space view
// the clustering stage requires.
//
// A profile is the *only* information the adaptive tuner receives about a
// platform. It is collected once per machine by internal/probe and stored on
// disk, decoupling (as in the paper's Figure 1) the profiling runs from the
// generation and evaluation of candidate barriers.
package profile

import (
	"encoding/json"
	"fmt"
	"os"

	"topobarrier/internal/mat"
)

// Profile holds the measured topological model of a P-process platform.
type Profile struct {
	// Platform is a free-form description of the machine and placement the
	// profile was captured under. Predictions are only valid when the run
	// time placement matches (§III: "valid predictions require consistency
	// between the run time conditions reflected in the profile and those of
	// an experimental verification").
	Platform string
	// P is the number of processes.
	P int
	// O[i][j] estimates the startup overhead of one message from i to j;
	// O[i][i] estimates the cost of initiating a request that sends nothing
	// (the paper's Oii).
	O *mat.Dense
	// L[i][j] estimates the marginal latency of adding a message from i to j
	// to a non-empty simultaneous send batch.
	L *mat.Dense
	// Provenance says which off-diagonal entries a hierarchy-driven probe
	// estimated instead of measuring, and what it screened; nil means every
	// entry was measured and nothing screened (or the profile's source does
	// not say).
	Provenance *Provenance
}

// Provenance is the measured/estimated record of a sparse probe.
type Provenance struct {
	// Estimated is symmetric: (i, j) is set when O and L of the pair are read
	// off the measured rank → cluster-centre links of its link class rather
	// than a measurement of the pair itself.
	Estimated *mat.Bool
	// Screened counts the pairs given a zero-byte round-trip screen to find
	// the hierarchy by; a screen is never an entry of O or L.
	Screened int
	// SpotChecked counts the estimated pairs that were then measured to hold
	// their sibling-cluster block's estimates against (two a block);
	// Remeasured counts the blocks that missed a check and were measured in
	// full.
	SpotChecked, Remeasured int
}

// MeasuredPairs counts the off-diagonal pairs that were measured rather than
// estimated: what a probe of the platform cost.
func (pr *Profile) MeasuredPairs() int {
	n := pr.P * (pr.P - 1) / 2
	if pr.Provenance != nil {
		n -= pr.Provenance.Estimated.Count() / 2
	}
	return n
}

// New returns an empty profile for p processes.
func New(platform string, p int) *Profile {
	return &Profile{Platform: platform, P: p, O: mat.NewDense(p), L: mat.NewDense(p)}
}

// Validate reports an error if the profile is structurally unusable.
func (pr *Profile) Validate() error {
	if pr.P <= 0 {
		return fmt.Errorf("profile: non-positive process count %d", pr.P)
	}
	if pr.O == nil || pr.L == nil {
		return fmt.Errorf("profile: missing matrices")
	}
	if pr.O.N() != pr.P || pr.L.N() != pr.P {
		return fmt.Errorf("profile: matrix sizes %d/%d do not match P=%d", pr.O.N(), pr.L.N(), pr.P)
	}
	o, l := pr.O.Data(), pr.L.Data()
	for k := range o {
		if o[k] < 0 || l[k] < 0 {
			return fmt.Errorf("profile: negative cost at (%d,%d)", k/pr.P, k%pr.P)
		}
		if o[k] == 0 && l[k] == 0 && k/pr.P != k%pr.P {
			return fmt.Errorf("profile: pair (%d,%d) has O = L = 0: an entry nobody measured, which the model would price as a free link", k/pr.P, k%pr.P)
		}
	}
	if pv := pr.Provenance; pv != nil && (pv.Estimated == nil || pv.Estimated.N() != pr.P) {
		return fmt.Errorf("profile: provenance does not cover P=%d", pr.P)
	}
	return nil
}

// Distance returns the metric used for rank clustering: the symmetrised
// startup overhead between two distinct ranks, and 0 for i == j. With a
// symmetric profile this satisfies the metric-space requirements of SSS
// clustering (positivity, symmetry; the triangle inequality holds for
// hierarchical interconnects whose layer costs dominate).
func (pr *Profile) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return (pr.O.At(i, j) + pr.O.At(j, i)) / 2
}

// Diameter returns the largest pairwise distance.
func (pr *Profile) Diameter() float64 {
	d := 0.0
	for i := 0; i < pr.P; i++ {
		for j := i + 1; j < pr.P; j++ {
			if v := pr.Distance(i, j); v > d {
				d = v
			}
		}
	}
	return d
}

// Sub returns the profile restricted to the given ranks; entry (a, b) of the
// result describes the pair (ranks[a], ranks[b]) of the original, Provenance
// included (the probe's spot-check and re-measured counts carry over as they
// are). It is the tuner's pricing view.
func (pr *Profile) Sub(ranks []int) *Profile {
	sub := &Profile{
		Platform: pr.Platform,
		P:        len(ranks),
		O:        pr.O.Sub(ranks),
		L:        pr.L.Sub(ranks),
	}
	if pv := pr.Provenance; pv != nil {
		est := mat.NewBool(len(ranks))
		for a, i := range ranks {
			for b, j := range ranks {
				est.Set(a, b, pv.Estimated.At(i, j))
			}
		}
		sub.Provenance = &Provenance{Estimated: est, Screened: pv.Screened, SpotChecked: pv.SpotChecked, Remeasured: pv.Remeasured}
	}
	return sub
}

// profileJSON is the on-disk representation.
type profileJSON struct {
	Platform string      `json:"platform"`
	P        int         `json:"p"`
	O        [][]float64 `json:"o"`
	L        [][]float64 `json:"l"`
	// Provenance is absent when every entry was measured, so profiles written
	// before sparse probing load, and save again, byte for byte.
	Provenance *provenanceJSON `json:"provenance,omitempty"`
}

// provenanceJSON lists, for each rank i, the ranks j > i whose pair (i, j)
// is an estimate. Screened is absent when 0, so provenance written before
// screening loads, and saves again, byte for byte.
type provenanceJSON struct {
	Estimated   [][]int `json:"estimated"`
	SpotChecked int     `json:"spot_checked"`
	Remeasured  int     `json:"remeasured_blocks"`
	Screened    int     `json:"screened,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (pr *Profile) MarshalJSON() ([]byte, error) {
	enc := profileJSON{Platform: pr.Platform, P: pr.P}
	enc.O = toRows(pr.O)
	enc.L = toRows(pr.L)
	if pv := pr.Provenance; pv != nil {
		enc.Provenance = &provenanceJSON{Estimated: make([][]int, pr.P), SpotChecked: pv.SpotChecked, Remeasured: pv.Remeasured, Screened: pv.Screened}
		for i := range enc.Provenance.Estimated {
			enc.Provenance.Estimated[i] = []int{}
		}
		pv.Estimated.Each(func(i, j int) {
			if i < j {
				enc.Provenance.Estimated[i] = append(enc.Provenance.Estimated[i], j)
			}
		})
	}
	return json.Marshal(enc)
}

// UnmarshalJSON implements json.Unmarshaler.
func (pr *Profile) UnmarshalJSON(data []byte) error {
	var dec profileJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	if len(dec.O) != dec.P || len(dec.L) != dec.P {
		return fmt.Errorf("profile: decoded matrices of %d/%d rows for P=%d", len(dec.O), len(dec.L), dec.P)
	}
	for i := 0; i < dec.P; i++ {
		if len(dec.O[i]) != dec.P || len(dec.L[i]) != dec.P {
			return fmt.Errorf("profile: decoded row %d has %d/%d entries for P=%d", i, len(dec.O[i]), len(dec.L[i]), dec.P)
		}
	}
	pr.Platform = dec.Platform
	pr.P = dec.P
	pr.O = mat.DenseFromRows(dec.O)
	pr.L = mat.DenseFromRows(dec.L)
	pr.Provenance = nil
	if pj := dec.Provenance; pj != nil {
		if len(pj.Estimated) != dec.P {
			return fmt.Errorf("profile: provenance of %d rows for P=%d", len(pj.Estimated), dec.P)
		}
		pr.Provenance = &Provenance{Estimated: mat.NewBool(dec.P), Screened: pj.Screened, SpotChecked: pj.SpotChecked, Remeasured: pj.Remeasured}
		for i, row := range pj.Estimated {
			for _, j := range row {
				if j <= i || j >= dec.P {
					return fmt.Errorf("profile: provenance row %d lists rank %d, want %d < j < %d", i, j, i, dec.P)
				}
				pr.Provenance.Estimated.Set(i, j, true)
				pr.Provenance.Estimated.Set(j, i, true)
			}
		}
	}
	return pr.Validate()
}

func toRows(m *mat.Dense) [][]float64 {
	rows := make([][]float64, m.N())
	for i := range rows {
		rows[i] = make([]float64, m.N())
		for j := range rows[i] {
			rows[i][j] = m.At(i, j)
		}
	}
	return rows
}

// Save writes the profile to path as JSON.
func (pr *Profile) Save(path string) error {
	if err := pr.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(pr, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a profile previously written by Save.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pr := &Profile{}
	if err := json.Unmarshal(data, pr); err != nil {
		return nil, fmt.Errorf("profile: decoding %s: %w", path, err)
	}
	return pr, nil
}
