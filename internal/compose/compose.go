// Package compose implements the paper's greedy hybrid barrier construction
// (§VII.B): it walks the topology tree produced by SSS clustering, evaluates
// every component algorithm on each cluster, greedily keeps the one with the
// cheapest predicted arrival phase, merges sibling arrival phases into a
// single matrix sequence as early as possible, and infers the departure
// phase as the reversed sequence of transposed matrices — omitting the root
// level when the root algorithm is a dissemination, which leaves every
// representative fully informed without departure signals.
package compose

import (
	"fmt"
	"strings"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
)

// Choice records the greedy decision taken for one cluster of the tree.
type Choice struct {
	// Ranks are the members the component ran over: a leaf cluster's ranks,
	// or the representatives of an internal node's children.
	Ranks []int
	// Algorithm is the selected component's name.
	Algorithm string
	// Cost is the predicted cost of the component's phases in isolation
	// (arrival ×2, or ×1 for a root-level no-departure component).
	Cost float64
	// Root marks the decision at the top of the hierarchy.
	Root bool
}

// Result is a composed hybrid barrier.
type Result struct {
	// Schedule is the full global signal pattern (arrival and departure),
	// with no-op stages eliminated.
	Schedule *sched.Schedule
	// Choices lists the per-cluster decisions bottom-up.
	Choices []Choice
	// PredictedCost is the predictor's critical-path estimate of Schedule.
	PredictedCost float64
}

// Describe renders the decisions, in the spirit of the paper's Figure 10.
func (r *Result) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hybrid over %d ranks: %d stages, predicted %.1fµs\n",
		r.Schedule.P, r.Schedule.NumStages(), r.PredictedCost*1e6)
	for _, c := range r.Choices {
		level := "cluster"
		if c.Root {
			level = "root"
		}
		fmt.Fprintf(&b, "  %-7s %-14s over %v (predicted %.1fµs)\n", level, c.Algorithm, c.Ranks, c.Cost*1e6)
	}
	return b.String()
}

// Hybrid composes a specialised barrier for the platform described by the
// predictor's profile, over the given topology tree, choosing among the given
// component algorithms.
//
// Candidates are priced locally and only winners are emitted: every builder's
// n-rank arrival is priced on the cluster's own n×n sub-profile, and the
// cheapest is written, edge by edge through the cluster's member list, into
// one shared sequence of global arrival matrices at the stage its subtree
// left off. No candidate is ever lifted into the P-rank space. Pricing the
// local pattern equals pricing the lifted one bit for bit as long as every
// member list is strictly ascending (the predictor sums L over targets in
// increasing rank, non-members cost nothing and never bound the maximum);
// SSS trees guarantee that order and Hybrid rejects a tree that does not.
func Hybrid(pd *predict.Predictor, tree *sss.Node, builders []sched.Builder) (*Result, error) {
	if len(builders) == 0 {
		return nil, fmt.Errorf("compose: no component algorithms")
	}
	p := pd.Prof.P
	c := &composer{pd: pd, builders: builders}
	rootStart, end, rootNeedsDeparture, err := c.place(tree, true)
	if err != nil {
		return nil, err
	}

	full := sched.New(fmt.Sprintf("hybrid(%d)", p), p)
	for _, m := range c.arrival {
		if m != nil {
			full.AddStage(m)
		}
	}
	// Departure mirrors the arrival: the same matrices transposed, in reverse.
	// A root-level dissemination informs every representative, so then only
	// the sub-root stages need their transposed broadcast.
	if !rootNeedsDeparture {
		end = rootStart
	}
	for t := end - 1; t >= 0; t-- {
		if c.arrival[t] != nil {
			full.AddStage(c.arrival[t].T())
		}
	}
	if !full.IsBarrier() {
		return nil, fmt.Errorf("compose: composed schedule does not globally synchronise (bug)")
	}
	return &Result{Schedule: full, Choices: c.choices, PredictedCost: pd.Cost(full)}, nil
}

// composer carries one Hybrid call's state down the tree walk.
type composer struct {
	pd       *predict.Predictor
	builders []sched.Builder
	// arrival[t] is the union of every component's signals at global stage t,
	// nil while no signal landed there (a no-op stage, eliminated on output).
	arrival []*mat.Bool
	choices []Choice
}

// place composes the subtree under n into c.arrival and returns the stage
// range [start, end) of n's own phase. Leaves start at stage 0 and a node's
// own phase starts where its deepest child ended, so sibling phases of
// differing length overlap as early as possible (§VII.B).
func (c *composer) place(n *sss.Node, isRoot bool) (start, end int, needsDeparture bool, err error) {
	members := n.Ranks
	if !n.IsLeaf() {
		members = make([]int, 0, len(n.Children))
		for _, ch := range n.Children {
			_, chEnd, _, err := c.place(ch, false)
			if err != nil {
				return 0, 0, false, err
			}
			start = max(start, chEnd)
			members = append(members, ch.Representative())
		}
	}
	own, needsDeparture, choice, err := c.selectComponent(members, isRoot)
	if err != nil {
		return 0, 0, false, err
	}
	choice.Root = isRoot
	c.choices = append(c.choices, choice)
	end = start + own.NumStages()
	for len(c.arrival) < end {
		c.arrival = append(c.arrival, nil)
	}
	for k, st := range own.Stages {
		st.Each(func(a, b int) {
			if c.arrival[start+k] == nil {
				c.arrival[start+k] = mat.NewBool(c.pd.Prof.P)
			}
			c.arrival[start+k].Set(members[a], members[b], true)
		})
	}
	return start, end, needsDeparture, nil
}

// selectComponent greedily picks the cheapest component for one group of
// members and returns its arrival in the group's local rank space.
func (c *composer) selectComponent(members []int, isRoot bool) (*sched.Schedule, bool, Choice, error) {
	if len(members) == 0 {
		return nil, false, Choice{}, fmt.Errorf("compose: empty cluster")
	}
	if len(members) == 1 {
		return sched.New("singleton", 1), true, Choice{Ranks: members, Algorithm: "singleton"}, nil
	}
	for a := 1; a < len(members); a++ {
		if members[a] <= members[a-1] {
			return nil, false, Choice{}, fmt.Errorf("compose: cluster members %v are not strictly ascending", members)
		}
	}
	local := *c.pd // same policy, on the cluster's own sub-profile
	local.Prof = c.pd.Prof.Sub(members)
	var (
		best        *sched.Schedule
		bestBuilder sched.Builder
		bestCost    float64
	)
	for _, b := range c.builders {
		arrival := b.Arrival(len(members))
		// Lower levels always pay the departure transposes; only the root
		// can exploit a no-departure component (§VII.B).
		needsDep := b.NeedsDeparture || !isRoot
		cost := local.ArrivalPhaseCost(arrival, needsDep)
		if best == nil || cost < bestCost {
			best, bestBuilder, bestCost = arrival, b, cost
		}
	}
	ch := Choice{Ranks: append([]int(nil), members...), Algorithm: bestBuilder.Name, Cost: bestCost}
	return best, bestBuilder.NeedsDeparture || !isRoot, ch, nil
}
