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
// non-overtaking on both transports makes that pairing exact — estimates
// per-rank clock offsets from the matched exchanges, and groups messages
// into barrier instances; Timeline.CriticalPath walks arrival maxima
// backwards from the last stage completion; Analyze diffs that walk against
// predict's modelled chain.
//
// Clock offsets are estimated NTP-style: for ranks i and j exchanging
// messages both ways, delta(i,j) = min over i→j messages of
// (recv end − send end) overstates the true latency by the clock skew
// off(j) − off(i), so (delta(i,j) − delta(j,i))/2 estimates the skew with
// the symmetric-latency assumption. Estimates propagate from rank 0 across
// the graph of bidirectional pairs; ranks that pair with rank 0's component
// in one direction only keep offset 0 and are flagged. In-process all ranks
// share one clock and every estimate is near zero, but the machinery is what
// a multi-process deployment will lean on. The simulator's virtual clock is
// global and exact: MergeSim estimates nothing.
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
// tracer epoch after per-rank clock-offset correction.
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

// stageSpan is one corrected barrier.stage interval of a rank.
type stageSpan struct {
	start, end float64
}

// Timeline is the merged cross-rank view of one trace window.
type Timeline struct {
	P int
	// Offsets[r] is the estimated clock offset of rank r relative to rank 0
	// (seconds, subtracted from r's raw times); Estimated[r] says whether
	// it came from a bidirectional exchange chain or defaulted to 0.
	Offsets   []float64
	Estimated []bool
	// TagBase and Seq identify the selected barrier instance; Messages are
	// its matched messages, All every matched message in the window.
	TagBase  int
	Seq      int
	Messages []Message
	All      []Message
	// Unmatched counts send or recv spans with no partner in the window
	// (messages cut in flight, or windows that split an exchange).
	Unmatched int

	stages map[[2]int][]stageSpan // (rank, stage) → corrected spans, in window order
}

// instanceKey identifies one barrier execution: every instance uses a
// (src, dst, tag) key at most once, so the occurrence index of the matched
// pair separates repeats of the same tag window.
type instanceKey struct {
	base, seq int
}

// rawMsg is a matched pair before offset correction.
type rawMsg struct {
	src, dst, stage, tag, seq int
	transport                 string
	sendStart, sent           float64
	recvStart, recvEnd        float64
}

// Merge builds the cross-rank timeline of a trace window for a p-rank mesh.
// tagBase selects the barrier instance to extract the critical path for:
// pass a data tag base to pin one, or a negative value to auto-select the
// latest instance in the window (the usual case — the barrier that just
// completed or failed). Offset estimation and link blame always use every
// matched message in the window regardless of the selection.
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
	var raw []rawMsg
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
			raw = append(raw, rawMsg{
				src: k.src, dst: k.dst, stage: ss[i].Stage, tag: k.tag, seq: i,
				transport: strings.TrimPrefix(ss[i].Name, sendPrefix),
				sendStart: ss[i].Start.Seconds(),
				sent:      ss[i].End().Seconds(),
				recvStart: rs[i].Start.Seconds(),
				recvEnd:   rs[i].End().Seconds(),
			})
		}
	}
	for k, rs := range recvs {
		if n := len(sends[k]); len(rs) > n {
			tl.Unmatched += len(rs) - n
		}
	}
	tl.estimateOffsets(raw)
	if err := tl.assemble(raw, tagBase); err != nil {
		return nil, err
	}

	for rk, ss := range stagesRaw {
		sortByStart(ss)
		for _, e := range ss {
			tl.stages[rk] = append(tl.stages[rk], stageSpan{
				start: e.Start.Seconds() - tl.Offsets[e.Rank],
				end:   e.End().Seconds() - tl.Offsets[e.Rank],
			})
		}
	}
	return tl, nil
}

// assemble corrects the matched pairs by the timeline's clock offsets into
// All, groups them into barrier instances and selects one into Messages —
// the half of Merge that does not care which executor produced the pairs.
func (tl *Timeline) assemble(raw []rawMsg, tagBase int) error {
	for _, m := range raw {
		tl.All = append(tl.All, Message{
			Src: m.src, Dst: m.dst, Stage: m.stage, Tag: m.tag, Seq: m.seq,
			Transport: m.transport,
			SendStart: m.sendStart - tl.Offsets[m.src],
			Sent:      m.sent - tl.Offsets[m.src],
			Arrived:   m.recvEnd - tl.Offsets[m.dst],
			Wait:      m.recvEnd - m.recvStart,
		})
	}
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

// estimateOffsets fills Offsets/Estimated from the raw matched exchanges.
func (tl *Timeline) estimateOffsets(raw []rawMsg) {
	p := tl.P
	tl.Offsets = make([]float64, p)
	tl.Estimated = make([]bool, p)
	delta := make([][]float64, p)
	for i := range delta {
		delta[i] = make([]float64, p)
		for j := range delta[i] {
			delta[i][j] = math.Inf(1)
		}
	}
	for _, m := range raw {
		if d := m.recvEnd - m.sent; d < delta[m.src][m.dst] {
			delta[m.src][m.dst] = d
		}
	}
	// BFS over bidirectional pairs from rank 0. rel(i,j) estimates
	// off(j) − off(i); offsets accumulate along the tree.
	tl.Estimated[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := 0; j < p; j++ {
			if tl.Estimated[j] || math.IsInf(delta[i][j], 1) || math.IsInf(delta[j][i], 1) {
				continue
			}
			tl.Offsets[j] = tl.Offsets[i] + (delta[i][j]-delta[j][i])/2
			tl.Estimated[j] = true
			queue = append(queue, j)
		}
	}
}

// stageInterval returns the corrected stage span of (rank, stage) belonging
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
		const eps = 1e-6 // 1µs slack against clock-offset correction jitter
		for _, s := range spans {
			if s.start-eps <= t && t <= s.end+eps {
				return s.start, s.end, true
			}
		}
	}
	s := spans[len(spans)-1]
	return s.start, s.end, true
}
