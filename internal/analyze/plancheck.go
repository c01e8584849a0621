package analyze

import (
	"fmt"
	"sort"

	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// This file implements the plan-level protocol checker: a static pass over a
// compiled run.Plan that verifies the properties the transports rely on but
// never re-derive at runtime. Schedule-level analysis proves Eq. 3 over
// matrices; plan-level analysis re-proves the messaging consequences over
// the artifact that actually executes — per-rank op lists that may have been
// built by PlanFromOps, surgically modified, or silenced — where matrix-level
// guarantees no longer apply.
//
// Checks, in the order they run:
//
//   - plan-structure: stage indices in range and strictly increasing per
//     rank (the transports walk op lists in order; a repeated or regressing
//     stage index reuses a tag while the previous matching window is live).
//   - plan-unmatched-send: a send with no matching receive. The message is
//     unreceivable; under rendezvous semantics the sender blocks forever,
//     and under eager semantics the message survives the barrier — a stage
//     quiescence violation that poisons the next tag window.
//   - plan-unmatched-recv: a receive with no matching send — the receiver
//     waits for a message that never comes and deadlocks.
//   - plan-duplicate-message: the same (stage, src, dst) send or receive
//     listed twice. With one tag per stage the duplicates are
//     indistinguishable on the wire: a tag collision, the hazard class that
//     shared-mesh tag virtualization must exclude.
//   - plan-tag-overflow: the plan has more stages than run.TagSpan, so two
//     concurrent barrier invocations' tag windows overlap.
//   - plan-rendezvous-cycle: within one stage, a cycle among ranks that both
//     send and receive. Transports that complete sends before posting
//     receives (sequential send-then-recv under rendezvous semantics)
//     deadlock on such a cycle. Severity Warning, not Error: eager
//     transports — netmpi's buffered mesh included — complete the exchange,
//     and every pairwise-exchange barrier (recursive doubling) carries
//     2-cycles in every stage by design.
//
// Findings use the same severity gate as schedule analysis: Error findings
// mean the plan must not execute.

// message is one directed (stage, src, dst) edge of a plan, as declared by
// either endpoint.
type message struct {
	stage, src, dst int
}

// CheckPlan runs the plan-level protocol checks and returns the findings,
// most severe first.
func CheckPlan(pl *run.Plan) []Finding {
	var fs []Finding

	sends := map[message]int{} // declared by sender
	recvs := map[message]int{} // declared by receiver
	for r := 0; r < pl.P; r++ {
		prev := -1
		for _, op := range pl.RankOps(r) {
			if op.Tag < 0 || op.Tag >= pl.Stages {
				fs = append(fs, Finding{
					Check: "plan-structure", Severity: Error, Stage: op.Tag, Ranks: []int{r},
					Message: fmt.Sprintf("rank %d has ops in stage %d of a %d-stage plan", r, op.Tag, pl.Stages),
				})
				continue
			}
			if op.Tag <= prev {
				fs = append(fs, Finding{
					Check: "plan-structure", Severity: Error, Stage: op.Tag, Ranks: []int{r},
					Message: fmt.Sprintf("rank %d revisits stage %d after stage %d: its tag window is reused while live", r, op.Tag, prev),
				})
			}
			prev = op.Tag
			// No step addresses its own rank: NewPlan and PlanFromOps refuse it.
			for _, src := range op.Recvs {
				recvs[message{op.Tag, src, r}]++
			}
			for _, dst := range op.Sends {
				sends[message{op.Tag, r, dst}]++
			}
		}
	}

	for m, n := range sends {
		if n > 1 {
			fs = append(fs, Finding{
				Check: "plan-duplicate-message", Severity: Error, Stage: m.stage,
				Ranks: []int{m.src, m.dst},
				Edges: []Edge{{Stage: m.stage, From: m.src, To: m.dst}},
				Message: fmt.Sprintf("rank %d sends to rank %d %d times in stage %d under one tag: indistinguishable on the wire (tag collision)",
					m.src, m.dst, n, m.stage),
			})
		}
		if recvs[m] == 0 {
			fs = append(fs, Finding{
				Check: "plan-unmatched-send", Severity: Error, Stage: m.stage,
				Ranks: []int{m.src, m.dst},
				Edges: []Edge{{Stage: m.stage, From: m.src, To: m.dst}},
				Message: fmt.Sprintf("rank %d sends to rank %d in stage %d but rank %d never receives it: unreceivable message breaks stage quiescence",
					m.src, m.dst, m.stage, m.dst),
			})
		}
	}
	for m, n := range recvs {
		if n > 1 {
			fs = append(fs, Finding{
				Check: "plan-duplicate-message", Severity: Error, Stage: m.stage,
				Ranks: []int{m.src, m.dst},
				Edges: []Edge{{Stage: m.stage, From: m.src, To: m.dst}},
				Message: fmt.Sprintf("rank %d receives from rank %d %d times in stage %d under one tag: indistinguishable on the wire (tag collision)",
					m.dst, m.src, n, m.stage),
			})
		}
		if sends[m] == 0 {
			fs = append(fs, Finding{
				Check: "plan-unmatched-recv", Severity: Error, Stage: m.stage,
				Ranks: []int{m.src, m.dst},
				Edges: []Edge{{Stage: m.stage, From: m.src, To: m.dst}},
				Message: fmt.Sprintf("rank %d receives from rank %d in stage %d but rank %d never sends: the receiver deadlocks",
					m.dst, m.src, m.stage, m.src),
			})
		}
	}

	if pl.Stages > run.TagSpan {
		fs = append(fs, Finding{
			Check: "plan-tag-overflow", Severity: Error, Stage: -1,
			Message: fmt.Sprintf("plan has %d stages but the per-invocation tag budget is %d: concurrent invocations' tag windows overlap",
				pl.Stages, run.TagSpan),
		})
	}

	fs = append(fs, rendezvousCycles(pl)...)

	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		return fs[i].Stage < fs[j].Stage
	})
	return fs
}

// rendezvousCycles finds, per stage, cycles in the graph with an edge a→b
// whenever a sends to b in that stage and b also has sends in that stage —
// the wait-for relation of a transport that completes all sends before
// posting receives under rendezvous semantics.
func rendezvousCycles(pl *run.Plan) []Finding {
	// Per stage: who sends to whom, and who sends at all.
	type stageGraph struct {
		out     map[int][]int
		senders map[int]bool
	}
	graphs := map[int]*stageGraph{}
	for r := 0; r < pl.P; r++ {
		for _, op := range pl.RankOps(r) {
			if len(op.Sends) == 0 {
				continue
			}
			g := graphs[op.Tag]
			if g == nil {
				g = &stageGraph{out: map[int][]int{}, senders: map[int]bool{}}
				graphs[op.Tag] = g
			}
			g.senders[r] = true
			g.out[r] = append(g.out[r], op.Sends...)
		}
	}
	stages := make([]int, 0, len(graphs))
	for st := range graphs {
		stages = append(stages, st)
	}
	sort.Ints(stages)

	var fs []Finding
	for _, st := range stages {
		g := graphs[st]
		if cycle := findCycle(g.out, g.senders); cycle != nil {
			fs = append(fs, Finding{
				Check: "plan-rendezvous-cycle", Severity: Warning, Stage: st,
				Ranks: cycle, Chain: cycle,
				Message: fmt.Sprintf("stage %d has a send cycle among ranks %v: a transport that completes sends before receiving (strict rendezvous) deadlocks here; eager/buffered transports are safe",
					st, cycle),
			})
		}
	}
	return fs
}

// findCycle returns one directed cycle among the marked nodes (restricted to
// edges whose head is also marked), or nil. Iterative DFS with the standard
// three-colour marking.
func findCycle(out map[int][]int, marked map[int]bool) []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := map[int]int{}
	parent := map[int]int{}
	nodes := make([]int, 0, len(out))
	for n := range out {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var cycleFrom, cycleTo = -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		colour[u] = grey
		for _, v := range out[u] {
			if !marked[v] {
				continue
			}
			switch colour[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				cycleFrom, cycleTo = u, v
				return true
			}
		}
		colour[u] = black
		return false
	}
	for _, n := range nodes {
		if colour[n] == white && dfs(n) {
			// Unwind the parent chain from cycleFrom back to cycleTo.
			cycle := []int{cycleTo}
			for u := cycleFrom; u != cycleTo; u = parent[u] {
				cycle = append(cycle, u)
			}
			sort.Ints(cycle)
			return cycle
		}
	}
	return nil
}

// Vet is the one gate between a schedule and anything that executes it: the
// barriervet analysis, then compilation and the plan-level protocol checks
// over the compiled artifact — the thing that actually touches a transport.
// It refuses on any Error-severity finding and, when opts.CertifyK demands
// certification, on a resilience counterexample (which is deliberately not
// Error severity). Unlike run.NewPlan's bare boolean check, a refusal
// explains itself: the report holds the stalled knowledge pairs, chain
// counterexamples, or protocol violations, and is returned even on failure so
// callers can render it.
func Vet(s *sched.Schedule, opts Options) (*run.Plan, *Report, error) {
	rep := Analyze(s, opts)
	if err := rep.Err(); err != nil {
		return nil, rep, err
	}
	pl, err := run.NewPlan(s)
	if err != nil {
		return nil, rep, err
	}
	rep.Findings = append(rep.Findings, CheckPlan(pl)...)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Severity > rep.Findings[j].Severity
	})
	if err := rep.Err(); err != nil {
		return nil, rep, err
	}
	if cex := rep.ResilienceCounterexample(); cex != nil {
		return nil, rep, fmt.Errorf("analyze: schedule %q: %s", rep.Schedule, cex.Message)
	}
	return pl, rep, nil
}
