package mpi

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/topo"
)

// lockedOrders are the two orders TestRunOnALockedThread tries, each in a
// process of its own: which of the two Runs holds an OS-thread lock.
var lockedOrders = []struct {
	name   string
	locked [2]bool
}{
	{"locked-first", [2]bool{true, false}},
	{"plain-first", [2]bool{false, true}},
}

// ringRun runs a fixed job on a fresh noisy 16-rank World: stages around a
// ring, a ping-pong and a delayed rank.
func ringRun(t testing.TB) float64 {
	const p = 16
	f, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := NewWorld(f).Run(func(c *Comm) {
		me := c.Rank()
		if me == 5 {
			c.Compute(30 * usec)
		}
		for k := 0; k < 10; k++ {
			_ = c.Stage(k, []int{(me + p - 1) % p}, []int{(me + 1) % p})
		}
		pingPong(c, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// A Run from a goroutine locked to its OS thread, before or after a Run from
// an unlocked one, must neither crash the process nor measure anything else.
// The rank coroutines come from a process-wide pool, and Go ends the process
// when a coroutine is resumed under another thread-lock state than it was
// created under; each order runs in a subprocess, so a crash is its exit
// status.
func TestRunOnALockedThread(t *testing.T) {
	want := fmt.Sprintf("elapsed %x\n", ringRun(t))
	for _, order := range lockedOrders {
		out, err := exec.Command(os.Args[0], "-test.run=^TestLockedRunChild$", "-test.v", order.name).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", order.name, err, out)
		}
		if n := strings.Count(string(out), want); n != 2 {
			t.Fatalf("%s: %d of 2 Runs printed %q:\n%s", order.name, n, want, out)
		}
	}
}

// TestLockedRunChild is TestRunOnALockedThread's subprocess: the order to run
// is its one argument, and without one it does nothing.
func TestLockedRunChild(t *testing.T) {
	if flag.NArg() != 1 {
		t.Skip("the subprocess of TestRunOnALockedThread")
	}
	for _, order := range lockedOrders {
		if order.name != flag.Arg(0) {
			continue
		}
		for _, locked := range order.locked {
			if locked {
				runtime.LockOSThread()
			}
			fmt.Printf("elapsed %x\n", ringRun(t))
			if locked {
				runtime.UnlockOSThread()
			}
		}
		return
	}
	t.Fatalf("unknown order %q", flag.Arg(0))
}
