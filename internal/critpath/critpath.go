// Package critpath holds the one record of a barrier execution: a single
// causally-consistent, cross-rank timeline of its messages, built from either
// executor — Merge from the per-rank spans of a live mesh run, MergeSim from
// the simulator's message stream — and read by everything that asks what
// executed: the *realized* critical path of a barrier — the chain of message
// arrivals that actually determined its completion — the per-stage, per-rank
// completion times the model's Timeline is held against, a text Gantt, and
// per-link blame scores that compare each direction's observed delivery floor
// against the profiled O+L model.
//
// The live pipeline is: netmpi emits per-message send/recv spans (tag, peer,
// stage, transport) into a telemetry.Tracer; Merge matches the k-th send on
// a (src, dst, tag) key to the k-th receive on the same key — per-link
// non-overtaking on both transports makes that pairing exact — and groups
// messages into barrier instances; Timeline.CriticalPath walks each stage's
// binding receive backwards from the last stage completion; Analyze diffs
// that walk against predict's modelled chain.
//
// Merge takes the spans of one tracer: one epoch and one monotonic clock for
// every rank, so times from different ranks compare directly and nothing is
// corrected. The simulator's virtual clock is global and exact as well.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"topobarrier/internal/telemetry"
)

// Span-name prefixes emitted by netmpi; the suffix is the transport class.
const (
	sendPrefix  = "barrier.send:"
	recvPrefix  = "barrier.recv:"
	stagePrefix = "barrier.stage:"
)

// Message is one matched send/recv pair, with all times in seconds from the
// tracer epoch.
type Message struct {
	Src, Dst  int
	Stage     int
	Tag       int
	Seq       int // occurrence index of this (src,dst,tag) key in the window
	Transport string
	// SendStart..Sent is the sender's write (≈ the overhead term O);
	// Arrived is when the receiver's Recv returned the message. For a
	// receiver already blocked in Recv that is the delivery instant; for a
	// late receiver it is when it got around to taking delivery — either
	// way it is the moment that could determine barrier completion.
	SendStart, Sent, Arrived float64
	// Wait is how long the receiver's Recv actually blocked.
	Wait float64
}

// stageSpan is one barrier.stage interval of a rank.
type stageSpan struct {
	start, end float64
}

// Timeline is the merged cross-rank view of one trace window.
type Timeline struct {
	P int
	// TagBase and Seq identify the selected barrier instance; Messages are
	// its matched messages, All every matched message in the window.
	TagBase  int
	Seq      int
	Messages []Message
	All      []Message
	// Unmatched counts send or recv spans with no partner in the window
	// (messages cut in flight, or windows that split an exchange).
	Unmatched int

	stages map[[2]int][]stageSpan // (rank, stage) → spans, in window order
}

// instanceKey identifies one barrier execution: every instance uses a
// (src, dst, tag) key at most once, so the occurrence index of the matched
// pair separates repeats of the same tag window.
type instanceKey struct {
	base, seq int
}

// Merge builds the cross-rank timeline of a trace window for a p-rank mesh.
// tagBase selects the barrier instance to extract the critical path for:
// pass a data tag base to pin one, or a negative value to auto-select the
// latest instance in the window (the usual case — the barrier that just
// completed or failed). Link blame always uses every matched message in the
// window regardless of the selection.
func Merge(evs []telemetry.SpanEvent, p int, tagBase int) (*Timeline, error) {
	if p <= 0 {
		return nil, fmt.Errorf("critpath: non-positive rank count %d", p)
	}
	type key struct{ src, dst, tag int }
	sends := map[key][]telemetry.SpanEvent{}
	recvs := map[key][]telemetry.SpanEvent{}
	stagesRaw := map[[2]int][]telemetry.SpanEvent{}
	for _, e := range evs {
		switch {
		case strings.HasPrefix(e.Name, sendPrefix):
			if e.Rank < 0 || e.Rank >= p || e.Peer < 0 || e.Peer >= p {
				return nil, fmt.Errorf("critpath: send span %s with ranks %d→%d outside %d-rank mesh", e.Name, e.Rank, e.Peer, p)
			}
			k := key{e.Rank, e.Peer, e.Tag}
			sends[k] = append(sends[k], e)
		case strings.HasPrefix(e.Name, recvPrefix):
			if e.Rank < 0 || e.Rank >= p || e.Peer < 0 || e.Peer >= p {
				return nil, fmt.Errorf("critpath: recv span %s with ranks %d→%d outside %d-rank mesh", e.Name, e.Peer, e.Rank, p)
			}
			k := key{e.Peer, e.Rank, e.Tag}
			recvs[k] = append(recvs[k], e)
		case strings.HasPrefix(e.Name, stagePrefix):
			if e.Rank < 0 || e.Rank >= p || e.Stage < 0 {
				continue
			}
			rk := [2]int{e.Rank, e.Stage}
			stagesRaw[rk] = append(stagesRaw[rk], e)
		}
	}

	// FIFO matching: both transports deliver per-link in order and the
	// mailbox preserves it, so the k-th send on a key pairs with the k-th
	// receive on it.
	tl := &Timeline{P: p, stages: map[[2]int][]stageSpan{}}
	var all []Message
	for k, ss := range sends {
		rs := recvs[k]
		sortByStart(ss)
		sortByStart(rs)
		n := len(ss)
		if len(rs) < n {
			n = len(rs)
		}
		tl.Unmatched += len(ss) - n
		for i := 0; i < n; i++ {
			recvEnd := rs[i].End().Seconds()
			all = append(all, Message{
				Src: k.src, Dst: k.dst, Stage: ss[i].Stage, Tag: k.tag, Seq: i,
				Transport: strings.TrimPrefix(ss[i].Name, sendPrefix),
				SendStart: ss[i].Start.Seconds(),
				Sent:      ss[i].End().Seconds(),
				Arrived:   recvEnd,
				Wait:      recvEnd - rs[i].Start.Seconds(),
			})
		}
	}
	for k, rs := range recvs {
		if n := len(sends[k]); len(rs) > n {
			tl.Unmatched += len(rs) - n
		}
	}
	if err := tl.assemble(all, tagBase); err != nil {
		return nil, err
	}

	for rk, ss := range stagesRaw {
		sortByStart(ss)
		for _, e := range ss {
			tl.stages[rk] = append(tl.stages[rk], stageSpan{start: e.Start.Seconds(), end: e.End().Seconds()})
		}
	}
	return tl, nil
}

// assemble takes the matched messages as All, groups them into barrier
// instances and selects one into Messages — the half of Merge that does not
// care which executor produced them.
func (tl *Timeline) assemble(all []Message, tagBase int) error {
	tl.All = all
	sort.Slice(tl.All, func(a, b int) bool {
		if tl.All[a].Sent != tl.All[b].Sent {
			return tl.All[a].Sent < tl.All[b].Sent
		}
		return tl.All[a].Arrived < tl.All[b].Arrived
	})
	last := map[instanceKey]float64{}
	for _, m := range tl.All {
		ik := instanceKey{m.Tag - m.Stage, m.Seq}
		if prev, seen := last[ik]; !seen || m.Arrived > prev {
			last[ik] = m.Arrived
		}
	}
	sel := instanceKey{base: -1}
	bestArr := math.Inf(-1)
	for ik, arr := range last {
		if tagBase >= 0 && ik.base != tagBase {
			continue
		}
		if arr > bestArr || (arr == bestArr && ik.base > sel.base) {
			bestArr, sel = arr, ik
		}
	}
	if sel.base < 0 && tagBase >= 0 {
		return fmt.Errorf("critpath: no matched messages with tag base %d in window", tagBase)
	}
	tl.TagBase, tl.Seq = sel.base, sel.seq
	for _, m := range tl.All {
		if m.Tag-m.Stage == sel.base && m.Seq == sel.seq {
			tl.Messages = append(tl.Messages, m)
		}
	}
	sort.Slice(tl.Messages, func(a, b int) bool {
		if tl.Messages[a].Stage != tl.Messages[b].Stage {
			return tl.Messages[a].Stage < tl.Messages[b].Stage
		}
		if tl.Messages[a].Src != tl.Messages[b].Src {
			return tl.Messages[a].Src < tl.Messages[b].Src
		}
		return tl.Messages[a].Dst < tl.Messages[b].Dst
	})
	return nil
}

func sortByStart(evs []telemetry.SpanEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
}

// stageInterval returns the stage span of (rank, stage) belonging
// to the selected barrier instance: the span containing the rank's earliest
// event time for that stage, or the window's last such span when the rank
// has no selected-instance event there.
func (tl *Timeline) stageInterval(rank, stage int) (start, end float64, ok bool) {
	spans := tl.stages[[2]int{rank, stage}]
	if len(spans) == 0 {
		return 0, 0, false
	}
	t := math.Inf(1)
	for _, m := range tl.Messages {
		if m.Stage != stage {
			continue
		}
		if m.Src == rank && m.SendStart < t {
			t = m.SendStart
		}
		if m.Dst == rank {
			if rs := m.Arrived - m.Wait; rs < t {
				t = rs
			}
		}
	}
	if !math.IsInf(t, 1) {
		for _, s := range spans {
			if s.start <= t && t <= s.end {
				return s.start, s.end, true
			}
		}
	}
	s := spans[len(spans)-1]
	return s.start, s.end, true
}
