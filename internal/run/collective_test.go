package run

import (
	"testing"

	"topobarrier/internal/sched"
)

func TestTransferDeliversPayloadPattern(t *testing.T) {
	// A flat broadcast carrying 1 KB: every leaf must wait for the root's
	// payload; transfer time must reflect the payload size.
	p := 6
	bcast := sched.LinearArrival(p).ReverseTransposed()
	w := testWorld(t, p, 1)
	small, err := MeasureCold(w, TransferFunc(bcast, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MeasureCold(w, TransferFunc(bcast, 1<<20), 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.Mean <= small.Mean {
		t.Fatalf("payload size has no cost: %g vs %g", big.Mean, small.Mean)
	}
}

func TestMeasureColdBasics(t *testing.T) {
	w := testWorld(t, 8, 3)
	m, err := MeasureCold(w, ScheduleFunc(sched.Tree(8)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean <= 0 || m.Iters != 4 {
		t.Fatalf("cold measurement = %+v", m)
	}
	if _, err := MeasureCold(w, ScheduleFunc(sched.Tree(8)), 0); err == nil {
		t.Fatalf("zero reps accepted")
	}
	// Cold and steady-state measurements sample different regimes; both must
	// be positive and within an order of magnitude of each other.
	warm, err := Measure(w, ScheduleFunc(sched.Tree(8)), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mean <= 0 || m.Mean > 10*warm.Mean || warm.Mean > 10*m.Mean {
		t.Fatalf("cold %g vs steady %g implausible", m.Mean, warm.Mean)
	}
}
