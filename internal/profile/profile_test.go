package profile

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"topobarrier/internal/mat"
)

func sample() *Profile {
	pr := New("test machine", 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				pr.O.Set(i, j, 1e-6)
				continue
			}
			// Two "nodes" {0,1} and {2,3}.
			if i/2 == j/2 {
				pr.O.Set(i, j, 2e-6)
				pr.L.Set(i, j, 0.5e-6)
			} else {
				pr.O.Set(i, j, 50e-6)
				pr.L.Set(i, j, 8e-6)
			}
		}
	}
	return pr
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sample()
	bad.O.Set(1, 2, -1)
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative cost accepted")
	}
	if err := (&Profile{P: 0}).Validate(); err == nil {
		t.Fatalf("P=0 accepted")
	}
	mismatch := sample()
	mismatch.P = 5
	if err := mismatch.Validate(); err == nil {
		t.Fatalf("size mismatch accepted")
	}
	if err := (&Profile{P: 2}).Validate(); err == nil {
		t.Fatalf("nil matrices accepted")
	}
	// An off-diagonal entry nobody filled in is a free link to the model: it
	// is refused by pair name. L alone may be 0 (a live probe clamps it).
	free := sample()
	free.L.Set(3, 1, 0)
	if err := free.Validate(); err != nil {
		t.Fatalf("L = 0 with O > 0 refused: %v", err)
	}
	free.O.Set(3, 1, 0)
	if err := free.Validate(); err == nil || !strings.Contains(err.Error(), "pair (3,1)") {
		t.Fatalf("Validate() = %v, want the free link (3,1) refused by name", err)
	}
}

func TestDistanceAndDiameter(t *testing.T) {
	pr := sample()
	if pr.Distance(0, 0) != 0 {
		t.Fatalf("self distance nonzero")
	}
	if pr.Distance(0, 1) != 2e-6 {
		t.Fatalf("local distance = %g", pr.Distance(0, 1))
	}
	if pr.Distance(0, 2) != pr.Distance(2, 0) {
		t.Fatalf("distance asymmetric")
	}
	if pr.Diameter() != 50e-6 {
		t.Fatalf("diameter = %g", pr.Diameter())
	}
}

func TestSub(t *testing.T) {
	pr := sample()
	sub := pr.Sub([]int{1, 3})
	if sub.P != 2 {
		t.Fatalf("sub P = %d", sub.P)
	}
	if sub.O.At(0, 1) != pr.O.At(1, 3) || sub.L.At(1, 0) != pr.L.At(3, 1) {
		t.Fatalf("sub entries wrong")
	}
	if sub.O.At(0, 0) != pr.O.At(1, 1) {
		t.Fatalf("sub diagonal wrong")
	}
	if sub.Provenance != nil {
		t.Fatalf("sub of a fully measured profile has provenance %+v", sub.Provenance)
	}
	// The restriction keeps the measured/estimated record: (1,3) is an
	// estimate, (0,1) is not.
	sparse := sparseSample()
	if sub = sparse.Sub([]int{1, 3}); sub.Provenance == nil || !sub.Provenance.Estimated.At(0, 1) || !sub.Provenance.Estimated.At(1, 0) ||
		sub.Provenance.SpotChecked != 1 || sub.MeasuredPairs() != 0 {
		t.Fatalf("sub {1,3} of the sparse sample: provenance %+v, %d measured pairs", sub.Provenance, sub.MeasuredPairs())
	}
	if sub = sparse.Sub([]int{0, 1}); sub.Provenance == nil || !sub.Provenance.Estimated.IsZero() || sub.MeasuredPairs() != 1 {
		t.Fatalf("sub {0,1} of the sparse sample: provenance %+v, %d measured pairs", sub.Provenance, sub.MeasuredPairs())
	}
	if got := sparse.MeasuredPairs(); got != 4 {
		t.Fatalf("sparse sample counts %d measured pairs, want 4 of 6", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pr := sample()
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := pr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != pr.Platform || got.P != pr.P {
		t.Fatalf("metadata lost: %+v", got)
	}
	for i := 0; i < pr.P; i++ {
		for j := 0; j < pr.P; j++ {
			if math.Abs(got.O.At(i, j)-pr.O.At(i, j)) > 1e-18 ||
				math.Abs(got.L.At(i, j)-pr.L.At(i, j)) > 1e-18 {
				t.Fatalf("entry (%d,%d) lost", i, j)
			}
		}
	}
}

// sparseSample is sample() as a hierarchy-driven probe would leave it: the
// cross-node pairs (1,2) and (1,3) estimated, one block spot-checked.
func sparseSample() *Profile {
	pr := sample()
	pr.Provenance = &Provenance{Estimated: mat.NewBool(4), SpotChecked: 1}
	for _, e := range [][2]int{{1, 2}, {1, 3}} {
		pr.Provenance.Estimated.Set(e[0], e[1], true)
		pr.Provenance.Estimated.Set(e[1], e[0], true)
	}
	return pr
}

// Provenance survives the file format, and a profile without it — every
// profile written before sparse probing — encodes to the bytes it always did.
func TestProvenanceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pr := sparseSample()
	if err := pr.Save(filepath.Join(dir, "sparse.json")); err != nil {
		t.Fatal(err)
	}
	got, err := Load(filepath.Join(dir, "sparse.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil || !got.Provenance.Estimated.Equal(pr.Provenance.Estimated) ||
		got.Provenance.SpotChecked != 1 || got.Provenance.Remeasured != 0 {
		t.Fatalf("provenance lost: %+v", got.Provenance)
	}
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := json.Marshal(pr)
	if !bytes.Equal(first, again) {
		t.Fatalf("sparse profile re-encodes differently:\n%s\n%s", first, again)
	}
	if want := `"provenance":{"estimated":[[],[2,3],[],[]],"spot_checked":1,"remeasured_blocks":0}`; !bytes.Contains(first, []byte(want)) {
		t.Fatalf("encoding %s lacks %s", first, want)
	}

	// A survey that screened says how much; provenance from before screening
	// (above: no count) stays without one.
	pr.Provenance.Screened = 5
	screened, _ := json.Marshal(pr)
	if want := `"remeasured_blocks":0,"screened":5}`; !bytes.Contains(screened, []byte(want)) {
		t.Fatalf("encoding %s lacks %s", screened, want)
	}
	if err := json.Unmarshal(screened, got); err != nil || got.Provenance.Screened != 5 || got.Sub([]int{0, 2}).Provenance.Screened != 5 {
		t.Fatalf("screen count lost: %v, %+v", err, got.Provenance)
	}

	const old = `{"platform":"x","p":2,"o":[[0.000001,0.000002],[0.000002,0.000001]],"l":[[0,0.000005],[0.000005,0]]}`
	full := new(Profile)
	if err := json.Unmarshal([]byte(old), full); err != nil {
		t.Fatal(err)
	}
	if full.Provenance != nil {
		t.Fatalf("a profile without the field decoded with provenance %+v", full.Provenance)
	}
	if out, _ := json.Marshal(full); string(out) != old {
		t.Fatalf("fully measured profile re-encodes as\n%s\nwant\n%s", out, old)
	}

	short := sparseSample()
	short.Provenance.Estimated = mat.NewBool(3)
	if err := short.Validate(); err == nil {
		t.Fatal("provenance of the wrong size accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatalf("missing file accepted")
	}
	for name, data := range map[string]string{
		"truncated matrices":  `{"platform":"x","p":3,"o":[[0]],"l":[[0]]}`,
		"ragged O row":        `{"platform":"x","p":2,"o":[[0,1],[0]],"l":[[0,1],[1,0]]}`,
		"ragged L row":        `{"platform":"x","p":2,"o":[[0,1],[1,0]],"l":[[0,1,2],[1,0]]}`,
		"garbage":             `not json`,
		"short provenance":    `{"platform":"x","p":2,"o":[[0,1],[1,0]],"l":[[0,1],[1,0]],"provenance":{"estimated":[[1]]}}`,
		"provenance diagonal": `{"platform":"x","p":2,"o":[[0,1],[1,0]],"l":[[0,1],[1,0]],"provenance":{"estimated":[[0],[]]}}`,
		"provenance range":    `{"platform":"x","p":2,"o":[[0,1],[1,0]],"l":[[0,1],[1,0]],"provenance":{"estimated":[[2],[]]}}`,
	} {
		if err := new(Profile).UnmarshalJSON([]byte(data)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	bad := sample()
	bad.O.Set(0, 1, -5)
	if err := bad.Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatalf("invalid profile saved")
	}
}

func TestHeatMapStructure(t *testing.T) {
	pr := sample()
	hm := HeatMap(pr.L, "L matrix")
	if !strings.Contains(hm, "L matrix") {
		t.Fatalf("title missing:\n%s", hm)
	}
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	// Title + column header + 4 rows.
	if len(lines) != 6 {
		t.Fatalf("heat map has %d lines:\n%s", len(lines), hm)
	}
	// Slow cross-node cells must be darker (later glyph) than local cells.
	rows := lines[2:]
	local := rows[0][strings.IndexByte(rows[0], '·')-2] // not robust; use direct compare below
	_ = local
	// Row 0: columns are (·, local, remote, remote): the remote glyph should
	// be '@' (max) and the local one ' ' (min).
	if !strings.Contains(rows[0], "@") {
		t.Fatalf("max cell not rendered dark:\n%s", hm)
	}
}

func TestHeatMapUniformMatrix(t *testing.T) {
	m := mat.NewDense(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				m.Set(i, j, 5)
			}
		}
	}
	hm := HeatMap(m, "uniform")
	if !strings.Contains(hm, "·") {
		t.Fatalf("diagonal marker missing:\n%s", hm)
	}
}

func TestPGMFormat(t *testing.T) {
	pr := sample()
	img := PGM(pr.L)
	if !strings.HasPrefix(img, "P2\n4 4\n255\n") {
		t.Fatalf("bad PGM header:\n%s", img)
	}
	lines := strings.Split(strings.TrimRight(img, "\n"), "\n")
	if len(lines) != 3+4 {
		t.Fatalf("PGM has %d lines", len(lines))
	}
	if !strings.Contains(lines[3], "255") {
		t.Fatalf("row 0 lacks a max-intensity pixel: %q", lines[3])
	}
}
