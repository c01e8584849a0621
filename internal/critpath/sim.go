package critpath

import (
	"math"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
)

// MergeSim is Merge for the simulator: it builds the timeline of a traced
// world's message stream (mpi.WithTracer) over fab. The simulator hands over
// matched pairs on its one virtual clock and no stage spans, so there is
// nothing to match: Stage is the tag's offset in its run.TagSpan window,
// Transport the fabric's link-class name, SendStart the send's issue and
// Sent the synchronized sender's completion, Arrived the moment message and
// receive met, and Wait how long the receive had been posted by then
// (max(0, arrival − post)). The selected instance's stage intervals are read
// off its messages. tagBase selects the instance as in Merge.
func MergeSim(evs []mpi.TraceEvent, fab *fabric.Fabric, tagBase int) (*Timeline, error) {
	p := fab.P()
	tl := &Timeline{P: p, stages: map[[2]int][]stageSpan{}}
	type key struct{ src, dst, tag int }
	seen := map[key]int{}
	all := make([]Message, 0, len(evs))
	for _, e := range evs {
		if math.IsInf(e.Matched, 1) {
			tl.Unmatched++
			continue
		}
		k := key{e.Src, e.Dst, e.Tag}
		all = append(all, Message{
			Src: e.Src, Dst: e.Dst, Stage: e.Tag % run.TagSpan, Tag: e.Tag, Seq: seen[k],
			Transport: fab.Class(e.Src, e.Dst).String(),
			SendStart: e.Sent, Sent: e.Matched, Arrived: e.Matched, Wait: e.Matched - e.Posted,
		})
		seen[k]++
	}
	if err := tl.assemble(all, tagBase); err != nil {
		return nil, err
	}
	// A rank is in stage k from the moment it enters it — when it issues the
	// stage's sends and posts its receives — until the last of them matches.
	inStage := func(rank, stage int, entered, matched float64) {
		rk := [2]int{rank, stage}
		if tl.stages[rk] == nil {
			tl.stages[rk] = []stageSpan{{start: entered, end: matched}}
		}
		st := &tl.stages[rk][0]
		st.start, st.end = min(st.start, entered), max(st.end, matched)
	}
	for _, m := range tl.Messages {
		inStage(m.Src, m.Stage, m.SendStart, m.Arrived)
		inStage(m.Dst, m.Stage, m.Arrived-m.Wait, m.Arrived)
	}
	return tl, nil
}

// Sim runs progs (one per rank) on a traced world over fab and returns the
// run's timeline (the latest barrier instance selected) and elapsed virtual
// time.
func Sim(fab *fabric.Fabric, progs []mpi.Program, opts ...mpi.Option) (*Timeline, float64, error) {
	var evs []mpi.TraceEvent
	record := mpi.WithTracer(func(e mpi.TraceEvent) { evs = append(evs, e) })
	w := mpi.NewWorld(fab, append(opts[:len(opts):len(opts)], record)...)
	elapsed, err := w.Run(progs)
	if err != nil {
		return nil, elapsed, err
	}
	tl, err := MergeSim(evs, fab, -1)
	return tl, elapsed, err
}
