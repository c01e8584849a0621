package probe

import (
	"strings"
	"testing"

	"topobarrier/internal/mpi"
)

// TestMeasureAggregatesPairErrors pins the error-reporting contract: when
// several pairs fail, Measure names every one of them in a joined error
// instead of surfacing only whichever failed last.
func TestMeasureAggregatesPairErrors(t *testing.T) {
	// Identical size points make the O least-squares fit degenerate for every
	// pair, so all three pairs of a 3-rank world fail.
	cfg := Default()
	cfg.Sizes = []int{4, 4}
	_, err := Measure(mpi.NewWorld(quietFabric(t, 3)), cfg)
	if err == nil {
		t.Fatal("degenerate size sweep produced a profile")
	}
	for _, want := range []string{"pair (0,1)", "pair (0,2)", "pair (1,2)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q:\n%v", want, err)
		}
	}
}
