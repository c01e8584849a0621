package profile

import (
	"fmt"
	"strings"

	"topobarrier/internal/mat"
)

// HeatMap renders a cost matrix as text, reproducing the paper's Figure 9
// (the L matrix of one dual quad-core node rendered as shades of grey). Cells
// are binned between the smallest and largest off-diagonal value; darker
// glyphs mean slower links. The diagonal is rendered as '·'.
func HeatMap(m *mat.Costs, title string) string {
	shades := []byte(" .:-=+*#%@")
	n := m.N()
	lo, hi := m.MinOffDiag(), m.MaxOffDiag()
	var b strings.Builder
	fmt.Fprintf(&b, "%s (min %.3g, max %.3g)\n", title, lo, hi)
	b.WriteString("    ")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "%2d", j%100)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%3d ", i)
		for j := 0; j < n; j++ {
			if i == j {
				b.WriteString(" ·")
				continue
			}
			idx := 0
			if hi > lo {
				ratio := (m.At(i, j) - lo) / (hi - lo)
				idx = int(ratio * float64(len(shades)-1))
				if idx < 0 {
					idx = 0
				}
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteByte(' ')
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PGM renders a cost matrix as a binary-free plain PGM (P2) image, one pixel
// per matrix cell, 255 = slowest link. Viewers render it exactly like the
// paper's grey-coded Figure 9.
func PGM(m *mat.Costs) string {
	n := m.N()
	lo, hi := m.MinOffDiag(), m.MaxOffDiag()
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0
			if i != j && hi > lo {
				v = int((m.At(i, j) - lo) / (hi - lo) * 255)
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
			}
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
