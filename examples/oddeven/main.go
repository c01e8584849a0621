// Oddeven demonstrates the scheduling artifact the paper's model captures in
// the 2-node region of Figure 5: with round-robin process placement, the
// dissemination barrier's power-of-two offsets degenerate to purely
// cross-node phases for odd process counts, producing an oscillation between
// even and odd P — which the coupled model predicts without any special
// casing.
package main

import (
	"fmt"
	"log"

	"topobarrier"
)

func main() {
	fmt.Println("dissemination barrier, 2 nodes of the quad cluster, round-robin placement")
	fmt.Printf("%4s %12s %12s %14s\n", "P", "predicted", "measured", "note")
	prev := 0.0
	for p := 9; p <= 16; p++ {
		fab, err := topobarrier.NewFabric(
			topobarrier.QuadCluster(), topobarrier.RoundRobin{}, p, topobarrier.GigEParams(uint64(p)))
		if err != nil {
			log.Fatal(err)
		}
		world := topobarrier.NewWorld(fab)

		cfg := topobarrier.DefaultProbe()
		cfg.Replicate = true
		prof, err := topobarrier.MeasureProfile(world, cfg)
		if err != nil {
			log.Fatal(err)
		}
		pred := topobarrier.NewPredictor(prof).Cost(topobarrier.Dissemination(p))

		pl, err := topobarrier.NewPlan(topobarrier.Dissemination(p))
		if err != nil {
			log.Fatal(err)
		}
		m, err := topobarrier.Measure(world, pl.Func(), 5, 30)
		if err != nil {
			log.Fatal(err)
		}

		note := ""
		if prev > 0 {
			switch {
			case m.Mean > 1.15*prev:
				note = "↑ slower than P-1"
			case m.Mean < 0.87*prev:
				note = "↓ faster than P-1"
			}
		}
		fmt.Printf("%4d %10.1fµs %10.1fµs   %s\n", p, pred*1e6, m.Mean*1e6, note)
		prev = m.Mean
	}
	fmt.Println("\nwith round-robin mapping, odd P keeps every offset 2^s cross-node;")
	fmt.Println("even P lets half the traffic stay on-node — the model predicts both.")
}
