package trace

import (
	"sync"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

// TestRecorderHookConcurrent hammers one Recorder's hook from many goroutines
// at once; under -race this pins that concurrent trace callbacks are safe.
func TestRecorderHookConcurrent(t *testing.T) {
	rec := &Recorder{}
	hook := rec.Hook()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				hook(mpi.TraceEvent{Src: w, Dst: (w + 1) % workers, Sent: float64(i), Arrived: float64(i) + 1})
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Events); got != workers*per {
		t.Fatalf("recorded %d events, want %d (lost appends)", got, workers*per)
	}
}

// TestTracedWorldUnderRace runs a real traced simulation, whose rank
// goroutines drive the hook concurrently — the scenario the mutex exists for.
func TestTracedWorldUnderRace(t *testing.T) {
	fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, 8, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	w, rec := NewTracedWorld(fab)
	if _, err := RunOnce(w, run.ScheduleFunc(sched.Dissemination(8))); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("traced run recorded no events")
	}
}
