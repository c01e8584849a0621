package netmpi

import (
	"math"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/profile"
	"topobarrier/internal/topo"
)

// TestPatchOfOracleProfileStaysLocal patches fresh directions into a
// tier-derived oracle profile the way Reprobe does and checks that only the
// written entries moved: the patched directions' O and L, every other entry
// (the O[i][i] diagonal included) bit for bit as it was, and no row of O or
// L written out but the patched ones.
func TestPatchOfOracleProfileStaysLocal(t *testing.T) {
	fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 16, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	pf := fab.TrueProfile()
	p := pf.P
	wantO, wantL := make([][]float64, p), make([][]float64, p)
	for i := range wantO {
		wantO[i], wantL[i] = pf.O.CopyRow(make([]float64, p), i), pf.L.CopyRow(make([]float64, p), i)
	}
	fresh := []struct {
		d    profile.Link
		o, l float64
	}{
		{profile.Link{From: 3, To: 9}, 70e-6, 9e-6},
		{profile.Link{From: 9, To: 3}, 0.1e-6, 0.2e-6},
		{profile.Link{From: 0, To: 15}, 2e-6, 1e-6},
	}
	written := map[int]bool{}
	for _, f := range fresh {
		wantO[f.d.From][f.d.To], wantL[f.d.From][f.d.To] = f.o, f.l
		written[f.d.From] = true
		patch(pf, f.d, f.o, f.l)
	}
	for i := 0; i < p; i++ {
		if (pf.O.Row(i) != nil || pf.L.Row(i) != nil) && !written[i] {
			t.Fatalf("row %d written out (O %v, L %v), but no entry of it was patched", i, pf.O.Row(i) != nil, pf.L.Row(i) != nil)
		}
		for j := 0; j < p; j++ {
			if math.Float64bits(pf.O.At(i, j)) != math.Float64bits(wantO[i][j]) ||
				math.Float64bits(pf.L.At(i, j)) != math.Float64bits(wantL[i][j]) {
				t.Fatalf("(%d,%d) after patch: O %v L %v, want O %v L %v", i, j, pf.O.At(i, j), pf.L.At(i, j), wantO[i][j], wantL[i][j])
			}
		}
	}
	if err := pf.Validate(); err != nil {
		t.Fatal(err)
	}
}
