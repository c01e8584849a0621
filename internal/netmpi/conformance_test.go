package netmpi

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
	"topobarrier/internal/topo"
)

// conformanceP is the job size of the conformance table. On the mixed mesh
// ranks {0, 1} and {2, 3} share a node, so a row's pairs can run over either
// link class.
const conformanceP = 4

// conformanceRow is one program of the step contract, progs[r] rank r's
// steps, run in passes over alternating tag windows (0, run.TagSpan, …).
type conformanceRow struct {
	name   string
	progs  [][]mpi.Step
	passes int // 0 means 1
	// stuck are the ranks that never complete, on either venue; every
	// other rank completes.
	stuck []int
	// refused is the text mpi.CheckStep refuses rank 0's program with, on
	// both venues; live alone, the live venue's named refusal of a program
	// the simulator runs.
	refused, live string
}

// conformanceRows is the spec of what a step means (DESIGN §3.5): the
// simulator and the live venue on every mesh shape must agree on each row.
func conformanceRows(t *testing.T) []conformanceRow {
	p := conformanceP
	plan := tunedPlan(t, p)
	ops := make([][]mpi.Step, p)
	for r := range ops {
		ops[r] = plan.RankOps(r)
	}
	// Rank 0 signals ranks 1 and 2 twice each, and they answer twice, into
	// a step that lists its sources interleaved.
	repeated := [][]mpi.Step{
		{{Tag: 0, Sends: []int{1, 1, 2, 2}}, {Tag: 1, Recvs: []int{1, 2, 1, 2}}},
		{{Tag: 0, Recvs: []int{0, 0}}, {Tag: 1, Sends: []int{0, 0}}},
		{{Tag: 0, Recvs: []int{0, 0}}, {Tag: 1, Sends: []int{0, 0}}},
		nil,
	}
	// A linear barrier: every rank's fan-in to 0, then 0's fan-out.
	linear := make([][]mpi.Step, p)
	linear[0] = []mpi.Step{{Tag: 0, Recvs: []int{1, 2, 3}}, {Tag: 1, Sends: []int{1, 2, 3}}}
	for r := 1; r < p; r++ {
		linear[r] = []mpi.Step{{Tag: 0, Sends: []int{0}}, {Tag: 1, Recvs: []int{0}}}
	}
	one := func(st mpi.Step) [][]mpi.Step {
		progs := make([][]mpi.Step, p)
		progs[0] = []mpi.Step{st}
		return progs
	}
	return []conformanceRow{
		{name: "repeated-source", progs: repeated},
		{name: "repeated-source-two-windows", progs: repeated, passes: 4},
		{name: "same-peer-batch", progs: pairSweeps(p, []int{1, 2, 3, 4}, nil)},
		{name: "bytes", progs: pairSweeps(p, nil, []int{0, 1, 4096})},
		{name: "fan-in-fan-out", progs: linear},
		{name: "plan-two-windows", progs: ops, passes: 2},
		// Rank 1 waits for a second signal rank 0 never sends.
		{name: "short-by-one", progs: [][]mpi.Step{
			{{Sends: []int{1}}}, {{Recvs: []int{0, 0}}}, nil, nil,
		}, stuck: []int{1}},
		{name: "self", progs: one(mpi.Step{Sends: []int{0}}), refused: "addresses itself"},
		{name: "out-of-range", progs: one(mpi.Step{Recvs: []int{p}}), refused: fmt.Sprintf("peer %d out of range (size %d)", p, p)},
		{name: "negative-bytes", progs: one(mpi.Step{Bytes: -1}), refused: "negative message size -1"},
		{name: "negative-compute", progs: one(mpi.Step{Compute: -1}), refused: "local work of -1 s"},
		{name: "compute-and-noop", progs: one(mpi.Step{Compute: 1e-6, Noop: true}), refused: "both Compute and Noop"},
		{name: "compute", progs: one(mpi.Step{Compute: 1e-6}), live: "local work (Compute 1e-06 s) is not run on the live venue"},
		// A Noop step's local work is one Oii draw on the simulator and
		// nothing on the live venue, an empty step: alone, and carrying a
		// send.
		{name: "noop", progs: [][]mpi.Step{
			{{Noop: true}, {Tag: 1, Noop: true, Sends: []int{1}}}, {{Tag: 1, Recvs: []int{0}}}, nil, nil,
		}},
	}
}

// pairSweeps is probe's pair protocol, in two rounds of disjoint pairs —
// {0,1} and {2,3}, then {0,2} and {1,3}, so the mixed mesh runs it over both
// link classes: a handshake, then for each batch size n an n-signal batch
// to the one peer answered by one signal, and for each message size one
// signal of that size each way.
func pairSweeps(p int, batches, sizes []int) [][]mpi.Step {
	progs := make([][]mpi.Step, p)
	for round, pairs := range [][][2]int{{{0, 1}, {2, 3}}, {{0, 2}, {1, 3}}} {
		for _, pr := range pairs {
			for side, me := range pr {
				peer, first := pr[1-side], side == 0
				tag := 8 * round
				add := func(send bool, tag, n, bytes int) {
					peers := make([]int, n)
					for i := range peers {
						peers[i] = peer
					}
					if send {
						progs[me] = append(progs[me], mpi.Step{Tag: tag, Sends: peers, Bytes: bytes})
					} else {
						progs[me] = append(progs[me], mpi.Step{Tag: tag, Recvs: peers})
					}
				}
				add(first, tag, 1, 0)
				add(!first, tag, 1, 0)
				for _, n := range batches {
					add(first, tag+1, n, 0)
					add(!first, tag+2, 1, 0)
				}
				for _, s := range sizes {
					add(first, tag+3, 1, s)
					add(!first, tag+4, 1, s)
				}
			}
		}
	}
	return progs
}

// conformanceRun is what one venue did with a row: each rank's error, its
// completion times per pass, and the messages and payload bytes per link.
type conformanceRun struct {
	errs        []error
	done        [][][]float64 // [rank][pass][step]
	msgs, bytes [conformanceP][conformanceP]int64
}

// TestExecutorConformance holds the simulator and the live venue, on tcp,
// shm and mixed meshes, to one table of programs. Each row must reach the
// same verdict on every venue — the same ranks complete — with the same
// messages and payload bytes on every link (the simulator's TraceEvents
// against the live venue's frame and byte counters, at both ends), and a
// Done that is complete and monotone on every rank that completed. The
// refusal rows get mpi.CheckStep's text on both venues, or the live
// venue's named refusal of local work.
func TestExecutorConformance(t *testing.T) {
	for _, row := range conformanceRows(t) {
		t.Run(row.name, func(t *testing.T) {
			passes := max(row.passes, 1)
			sim := simConformance(t, row, passes)
			for _, tc := range executorShapes {
				t.Run(tc.name, func(t *testing.T) {
					live := liveConformance(t, row, passes, tc.nodes(conformanceP))
					checkConformance(t, row, passes, sim, live)
				})
			}
		})
	}
}

// simConformance runs row on mpi.World.
func simConformance(t *testing.T, row conformanceRow, passes int) conformanceRun {
	t.Helper()
	fab, err := fabric.New(topo.QuadCluster(), topo.RoundRobin{}, conformanceP, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	var res conformanceRun
	w := mpi.NewWorld(fab, mpi.WithTracer(func(e mpi.TraceEvent) {
		res.msgs[e.Src][e.Dst]++
		res.bytes[e.Src][e.Dst] += int64(e.Bytes)
	}))
	progs := make([]mpi.Program, conformanceP)
	res.done = make([][][]float64, conformanceP)
	res.errs = make([]error, conformanceP)
	for pass := 0; pass < passes; pass++ {
		// One pass per Run, so that every pass's Done is kept; the tag
		// windows alternate as the live passes' do.
		for r := range progs {
			progs[r] = mpi.Program{Steps: row.progs[r], Bases: []int{(pass % 2) * run.TagSpan}, Done: unwritten(len(row.progs[r]))}
		}
		_, err := w.Run(progs)
		for r := range progs {
			res.done[r] = append(res.done[r], progs[r].Done)
			if err != nil && res.errs[r] == nil && !complete(progs[r].Done) {
				res.errs[r] = err
			}
		}
		if err != nil {
			break
		}
	}
	return res
}

// liveConformance runs row on a fresh mesh of the given co-location: every
// rank runs its passes through the program entry. A refusal row runs only
// rank 0, whose refusal must come before anything is posted.
func liveConformance(t *testing.T, row conformanceRow, passes int, nodes []int) conformanceRun {
	t.Helper()
	peers := hybridMesh(t, conformanceP, nodes, WithTelemetry(telemetry.NewRegistry()))
	deadline := 5 * time.Second
	if len(row.stuck) > 0 {
		deadline = 300 * time.Millisecond
	}
	ranks := conformanceP
	if row.refused != "" || row.live != "" {
		ranks = 1
	}
	res := conformanceRun{errs: make([]error, conformanceP), done: make([][][]float64, conformanceP)}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				done := unwritten(len(row.progs[r]))
				res.done[r] = append(res.done[r], done)
				if _, res.errs[r] = peers[r].cur.program(row.progs[r], (pass%2)*run.TagSpan, deadline, false, done); res.errs[r] != nil {
					return
				}
			}
		}()
	}
	waitAll(t, &wg, 20*deadline, "conformance programs")
	for src, pe := range peers {
		for dst := range peers {
			if dst == src {
				continue
			}
			res.msgs[src][dst] = pe.m.sendFrames[dst].Value()
			res.bytes[src][dst] = pe.m.sendBytes[dst].Value()
			if got, want := peers[dst].m.recvFrames[src].Value(), res.msgs[src][dst]; got != want {
				t.Errorf("link %d→%d: %d frames received, %d sent", src, dst, got, want)
			}
			if got, want := peers[dst].m.recvBytes[src].Value(), res.bytes[src][dst]; got != want {
				t.Errorf("link %d→%d: %d bytes received, %d sent", src, dst, got, want)
			}
		}
	}
	return res
}

// checkConformance compares one live venue's run of row with the
// simulator's and with the row's own verdict.
func checkConformance(t *testing.T, row conformanceRow, passes int, sim, live conformanceRun) {
	t.Helper()
	switch {
	case row.refused != "":
		for venue, err := range map[string]error{"simulator": sim.errs[0], "live": live.errs[0]} {
			if err == nil || !strings.Contains(err.Error(), "step 0: "+row.refused) {
				t.Errorf("%s: rank 0 got %v, want the refusal %q", venue, err, row.refused)
			}
		}
	case row.live != "":
		if sim.errs[0] != nil {
			t.Errorf("simulator: %v, want the program run", sim.errs[0])
		}
		if err := live.errs[0]; err == nil || !strings.Contains(err.Error(), "netmpi: rank 0 step 0: "+row.live) {
			t.Errorf("live: rank 0 got %v, want the refusal %q", err, row.live)
		}
	}
	if row.refused != "" || row.live != "" {
		if live.msgs != ([conformanceP][conformanceP]int64{}) {
			t.Errorf("a refused program posted messages: %v", live.msgs)
		}
		return
	}
	for r := 0; r < conformanceP; r++ {
		wantStuck := false
		for _, s := range row.stuck {
			wantStuck = wantStuck || s == r
		}
		for venue, res := range map[string]conformanceRun{"simulator": sim, "live": live} {
			switch err := res.errs[r]; {
			case wantStuck && err == nil:
				t.Errorf("%s: rank %d completed, want it stuck", venue, r)
			case wantStuck:
			case err != nil:
				t.Errorf("%s: rank %d: %v", venue, r, err)
			case len(res.done[r]) != passes:
				t.Errorf("%s: rank %d ran %d passes, want %d", venue, r, len(res.done[r]), passes)
			default:
				for pass, done := range res.done[r] {
					if !complete(done) || !monotone(done) {
						t.Errorf("%s: rank %d pass %d: Done %v is not complete and monotone", venue, r, pass, done)
					}
				}
			}
		}
		if wantStuck {
			if err := live.errs[r]; err == nil || !timedOut.MatchString(err.Error()) {
				t.Errorf("live: stuck rank %d got %v, want the per-receive timeout", r, err)
			}
		}
	}
	if live.msgs != sim.msgs {
		t.Errorf("messages per link: live %v, simulator %v", live.msgs, sim.msgs)
	}
	if live.bytes != sim.bytes {
		t.Errorf("payload bytes per link: live %v, simulator %v", live.bytes, sim.bytes)
	}
}

// unwritten is a Done of n steps that no step has written: NaN each.
func unwritten(n int) []float64 {
	done := make([]float64, n)
	for i := range done {
		done[i] = math.NaN()
	}
	return done
}

func complete(done []float64) bool {
	for _, d := range done {
		if !(d >= 0) {
			return false
		}
	}
	return true
}

func monotone(done []float64) bool {
	for i := 1; i < len(done); i++ {
		if done[i] < done[i-1] {
			return false
		}
	}
	return true
}
