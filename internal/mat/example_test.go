package mat_test

import (
	"fmt"

	"topobarrier/internal/mat"
)

// ExamplePropagate walks the paper's Eq. 3 knowledge recurrence through the
// 4-rank linear barrier: after the arrival stage rank 0 knows everything,
// after the departure stage everyone knows everything.
func ExamplePropagate() {
	arrival := mat.BoolFromRows([][]bool{
		{false, false, false, false},
		{true, false, false, false},
		{true, false, false, false},
		{true, false, false, false},
	})
	departure := arrival.T()

	k := mat.Identity(4)
	k = mat.Propagate(k, arrival)
	fmt.Println("after arrival:  ", k.Count(), "of 16 entries known")
	k = mat.Propagate(k, departure)
	fmt.Println("after departure:", k.Count(), "of 16 entries known, barrier:", k.Count() == 16)
	// Output:
	// after arrival:   7 of 16 entries known
	// after departure: 16 of 16 entries known, barrier: true
}
