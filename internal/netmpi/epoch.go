package netmpi

import (
	"fmt"
	"sync"
	"time"

	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// Epoch-versioned plan execution: the hot-swap half of the online retuning
// loop. An Epochs store holds the succession of compiled plans a mesh has
// been asked to run; per-rank EpochRunners execute barriers against the
// currently agreed plan, and the barriers themselves agree on the next one.
//
// Agreement by closure. Every frame of an EpochRunner barrier carries one
// word: the lowest plan version its sender has seen — its own Latest at
// entry, folded (min) with every word received in earlier stages (the stage
// loop, barrier.go). The word spreads exactly as Eq. 3 knowledge does, so
// when barrier n completes every rank has folded in every rank's entry word
// and holds the same global minimum M: the newest version every rank has
// seen. Every rank installs plan M at call n+1 with no extra message and no
// cadence, so no rank ever executes invocation n of one plan against
// invocation n of another.
//
// Two tag windows. Call n uses window n mod 2 of run.TagSpan tags, so the
// data region is [0, 2·run.TagSpan). A rank racing into call n+1 cannot
// match the frames of a straggler still in call n, whatever plans the two
// calls run. Reusing the window at call n+2 is safe too: a rank that leaves
// n+1 knows every rank entered n+1, so every rank has finished n, and plans
// being quiescent (analyze.CheckPlan) every frame of n has been consumed.

// Epochs is the shared, versioned plan store of one mesh: the rendezvous
// between a retuning controller (Propose) and the per-rank EpochRunners
// (Latest/Plan). Like ShmHub it is in-process shared state standing in for
// what a multi-process deployment would put in a coordination service. The
// zero-based version 0 is the plan the mesh started with.
type Epochs struct {
	mu    sync.RWMutex
	plans []*run.Plan
}

// NewEpochs creates the store with the initial plan as version 0.
func NewEpochs(initial *run.Plan) (*Epochs, error) {
	if initial == nil {
		return nil, fmt.Errorf("netmpi: epochs need an initial plan")
	}
	return &Epochs{plans: []*run.Plan{initial}}, nil
}

// Propose installs a new plan and returns its version. The runners react at
// the call after every rank has seen the proposal: a Propose made between
// two collective calls rides the next call's frames and runs from the call
// after it. Propose is safe at any time relative to in-flight barriers: a
// rank that misses it in one call carries the older version, and the others
// wait one more call. Plans for a different mesh size are rejected.
func (e *Epochs) Propose(pl *run.Plan) (int, error) {
	if pl == nil {
		return 0, fmt.Errorf("netmpi: proposing a nil plan")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.plans[len(e.plans)-1]; cur.P != pl.P {
		return 0, fmt.Errorf("netmpi: proposed %d-rank plan for a %d-rank mesh", pl.P, cur.P)
	}
	e.plans = append(e.plans, pl)
	return len(e.plans) - 1, nil
}

// Latest returns the newest proposed version.
func (e *Epochs) Latest() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.plans) - 1
}

// Plan returns the plan of one version.
func (e *Epochs) Plan(version int) (*run.Plan, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if version < 0 || version >= len(e.plans) {
		return nil, fmt.Errorf("netmpi: no plan version %d (latest %d)", version, len(e.plans)-1)
	}
	return e.plans[version], nil
}

// EpochRunner executes one rank's barriers against the epoch store. All
// ranks of a mesh must construct their runners with the same store and call
// Barrier collectively the same number of times — exactly the existing
// collective-call contract of Peer.Barrier, extended with the agreed plan
// switch.
type EpochRunner struct {
	peer *Peer
	eps  *Epochs

	calls   int // total Barrier invocations (drives the tag window)
	version int // plan version currently executing
	plan    *run.Plan
	agreed  int // the version the last barrier agreed on: the next call's plan
	swaps   int // completed switches

	swapMetric *telemetry.Counter
}

// NewEpochRunner wraps one rank's peer. Runners start on the latest version
// already in the store, so construct all runners before the first
// concurrent Propose. The trailing argument is vestigial and must be 0.
func NewEpochRunner(peer *Peer, eps *Epochs, zero int) (*EpochRunner, error) {
	if peer == nil || eps == nil {
		return nil, fmt.Errorf("netmpi: epoch runner needs a peer and an epoch store")
	}
	if zero != 0 {
		return nil, fmt.Errorf("netmpi: epoch runner's third argument is %d, must be 0", zero)
	}
	version := eps.Latest()
	pl, err := eps.Plan(version)
	if err != nil {
		return nil, err
	}
	if pl.P != peer.Size() {
		return nil, fmt.Errorf("netmpi: %d-rank plan on %d-rank mesh", pl.P, peer.Size())
	}
	r := &EpochRunner{peer: peer, eps: eps, version: version, plan: pl, agreed: version}
	if peer.reg != nil {
		r.swapMetric = peer.reg.Counter(telemetry.Label("netmpi_epoch_swaps_total", "rank", fmt.Sprint(peer.rank)))
	}
	return r, nil
}

// Version reports the plan version the runner is currently executing.
func (r *EpochRunner) Version() int { return r.version }

// Swaps reports how many plan switches the runner has performed.
func (r *EpochRunner) Swaps() int { return r.swaps }

// Plan returns the plan the runner is currently executing.
func (r *EpochRunner) Plan() *run.Plan { return r.plan }

// Barrier executes one barrier. It first installs the version the previous
// call agreed on, if newer — on every rank at the same call index — then
// runs the current plan with this rank's latest known version as the frames'
// word, and keeps the folded minimum for the next call. The deadline bounds
// each receive.
func (r *EpochRunner) Barrier(deadline time.Duration) error {
	if r.agreed > r.version {
		pl, err := r.eps.Plan(r.agreed)
		if err != nil {
			return err
		}
		r.version, r.plan = r.agreed, pl
		r.swaps++
		r.swapMetric.Inc()
	}
	tagBase := (r.calls % 2) * run.TagSpan
	r.calls++
	_, agreed, err := r.peer.execute(r.plan, tagBase, deadline, false, uint32(r.eps.Latest()))
	if err != nil {
		return err
	}
	r.agreed = int(agreed)
	return nil
}
