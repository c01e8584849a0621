// Netbarrier demonstrates deploying a tuned barrier outside the simulator:
// the barrier is composed against a simulated profile of the target
// topology, compiled to a plan (pure data), and then executed by real
// concurrent ranks over loopback TCP connections with wall-clock timing —
// the "library implementation benefiting unmodified application codes" of
// §VIII.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"topobarrier"
	"topobarrier/internal/netmpi"
)

const (
	p      = 8
	warmup = 10
	iters  = 200
)

func main() {
	// 1. Tune for the target topology in the simulator.
	fab, err := topobarrier.NewFabric(
		topobarrier.QuadCluster(), topobarrier.Block{}, p, topobarrier.GigEParams(1))
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := topobarrier.ProfileAndTune(
		topobarrier.NewWorld(fab), topobarrier.DefaultProbe(), topobarrier.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned %s: %d stages, predicted %.1fµs on the target\n",
		tuned.Schedule().Name, tuned.Schedule().NumStages(), tuned.PredictedCost()*1e6)
	// Every tuned barrier carries its barriervet report; Tune would have
	// refused the schedule outright on Error-severity findings.
	fmt.Printf("barriervet: verified barrier, %d non-error findings\n", len(tuned.Report.Findings))

	// 2. Stand up a real TCP mesh (each rank is a goroutine here; across
	//    machines, each rank calls netmpi.Listen and netmpi.Dial itself with
	//    the distributed address list).
	peers, err := netmpi.LoopbackMesh(p, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer netmpi.CloseMesh(peers)
	fmt.Printf("TCP mesh of %d ranks established\n", p)

	// 3. Execute the tuned plan over real sockets and time it. Each rank runs
	//    its barriers back to back through an epoch runner, the loop that
	//    could also hot-swap a retuned plan between two calls.
	eps, err := netmpi.NewEpochs(tuned.Plan)
	if err != nil {
		log.Fatal(err)
	}
	durs := make([]time.Duration, p)
	var wg sync.WaitGroup
	for i, pe := range peers {
		r, err := netmpi.NewEpochRunner(pe, eps, 0)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var start time.Time
			for n := 0; n < warmup+iters; n++ {
				if n == warmup {
					start = time.Now()
				}
				if err := r.Barrier(5 * time.Second); err != nil {
					log.Fatal(err)
				}
			}
			durs[i] = time.Since(start) / iters
		}()
	}
	wg.Wait()
	fmt.Printf("tuned barrier over loopback TCP: %v per barrier (%d iterations)\n", slices.Max(durs), iters)
}
