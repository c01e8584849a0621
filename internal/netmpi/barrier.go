package netmpi

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// Span names, constant so the traced hot path does not concatenate per
// message. The suffix is the transport class of the message's link, or of
// the stage's links ("mixed" for both); a message span's peer attribute is
// the other end and its tag attribute the wire tag, which is what lets
// critpath match a send span on one rank to the receive span it caused on
// another.
var (
	sendSpan = [...]string{TransportTCP: "barrier.send:tcp", TransportShm: "barrier.send:shm"}
	recvSpan = [...]string{TransportTCP: "barrier.recv:tcp", TransportShm: "barrier.recv:shm"}
)

// stageSpanName names a stage's span. On a pure-TCP mesh it is a constant —
// the common fast path costs one nil check.
func (p *Peer) stageSpanName(recvs, sends []int) string {
	if p.nodes == nil {
		return "barrier.stage:tcp"
	}
	var seen [2]bool // by TransportClass
	for _, peers := range [2][]int{sends, recvs} {
		for _, r := range peers {
			seen[p.TransportOf(r)] = true
		}
	}
	switch {
	case seen[TransportTCP] && seen[TransportShm]:
		return "barrier.stage:mixed"
	case seen[TransportShm]:
		return "barrier.stage:shm"
	}
	return "barrier.stage:tcp"
}

// Barrier executes one compiled barrier plan over the mesh, using tags in
// [tagBase, tagBase+plan stages). The deadline bounds each receive; any
// transport failure or timeout aborts the barrier with an error naming the
// stage and the link.
func (p *Peer) Barrier(pl *run.Plan, tagBase int, deadline time.Duration) error {
	_, _, err := p.execute(pl, tagBase, deadline, false, 0)
	return err
}

// BarrierResilient executes one compiled barrier plan like Barrier, but
// keeps going when peers die mid-barrier: sends to and receives from latched
// failed links are skipped instead of aborting. It returns the sorted ranks
// that were skipped.
//
// The correctness contract is exactly what analyze.CertifyK certifies: if
// the plan's schedule is k-fault resilient and at most k ranks die (each
// detected as its links latch), the knowledge closure among survivors still
// holds, so every survivor's exit happens after every survivor's entry. On a
// schedule that is NOT resilient against the dead set, some survivor's
// required knowledge chain routes through a dead rank; that survivor's
// receive then waits on a healthy link whose sender is itself stalled, and
// the deadline converts the certified-impossible wait into an error rather
// than a hang. Run it only under a positive deadline for that reason.
func (p *Peer) BarrierResilient(pl *run.Plan, tagBase int, deadline time.Duration) ([]int, error) {
	skipped, _, err := p.execute(pl, tagBase, deadline, true, 0)
	return skipped, err
}

// Stage runs one stage on the mesh, the run.Stager contract generated
// barriers call: it posts a signal under tag to every rank of sends, then
// receives one under tag from every rank of recvs. Like Recv(…, 0) it has no
// time bound but fails fast: a failed link anywhere in the peer, or a local
// Close, ends it with an error.
func (p *Peer) Stage(tag int, recvs, sends []int) error {
	for _, peers := range [2][]int{recvs, sends} {
		for _, r := range peers {
			if r < 0 || r >= p.size || r == p.rank {
				return fmt.Errorf("netmpi: rank %d: invalid stage peer %d on a %d-rank mesh", p.rank, r, p.size)
			}
		}
	}
	return p.stage(tag, recvs, sends, &execState{})
}

var _ run.Stager = (*Peer)(nil)

// execute is the stage loop of Barrier, BarrierResilient and EpochRunner:
// one stage call per entry of the rank's plan, threading the caller's
// deadline, resilience and entry word through them.
func (p *Peer) execute(pl *run.Plan, tagBase int, deadline time.Duration, resilient bool, entry uint32) (skipped []int, folded uint32, err error) {
	if pl.P != p.size {
		return nil, 0, fmt.Errorf("netmpi: %d-rank plan on %d-rank mesh", pl.P, p.size)
	}
	if err := cmp.Or(p.checkTag(tagBase), p.checkTag(tagBase+pl.Stages)); err != nil {
		return nil, 0, err
	}
	var barrierStart time.Time
	if p.m.enabled {
		barrierStart = time.Now()
	}
	x := execState{deadline: deadline, resilient: resilient, folded: entry}
	for _, st := range pl.RankOps(p.rank) {
		if err = p.stage(tagBase+st.Tag, st.Recvs, st.Sends, &x); err != nil {
			return nil, 0, err
		}
	}
	if p.m.enabled {
		p.m.barrierDur.Observe(time.Since(barrierStart).Seconds())
	}
	return x.skipped, x.folded, nil
}

// execState is what a stage loop threads through its stages: the caller's
// receive deadline (0 = none) and resilience, and what the stages fold in.
type execState struct {
	deadline  time.Duration
	resilient bool
	folded    uint32 // the running minimum of the entry word and every word received
	skipped   []int  // resilient: the sorted ranks whose latched links were skipped
}

// stage is the one stage body. It posts every send as Comm.Stage posts its
// Issends — TCP sends but the last to their link writers, so one stalled
// write holds only its link — and waits for all of them before the receives,
// each message under a span. x.resilient selects send/recv, which abort on
// the first failure anywhere, or sendResilient/recvResilient, which skip
// latched links and record them in x.skipped.
//
// Every frame carries x.folded, the running minimum of the caller's entry
// word and every word received in earlier stages. Sends precede receives in
// each stage, so the minimum travels exactly as Eq. 3 knowledge does, and on
// a barrier plan every rank ends with the global minimum of the entry words
// (EpochRunner's plan version; the other callers pass 0). The stage's span
// and error name its index, the tag's offset in its run.TagSpan window.
func (p *Peer) stage(tag int, recvs, sends []int, x *execState) (err error) {
	index := tag % run.TagSpan
	var stageStart time.Time
	if p.m.enabled {
		stageStart = time.Now()
	}
	var span telemetry.Span
	if p.tracer != nil {
		span = p.tracer.Begin(p.stageSpanName(recvs, sends), p.rank, index, -1)
	}
	defer span.End()
	settle := func(s stageSend) {
		if s.skipped {
			x.skipped = addRank(x.skipped, s.dst)
		}
		if err == nil {
			err = s.err
		}
	}
	handed, last := 0, len(sends)-1
	for last >= 0 && p.conns[sends[last]] == nil {
		last-- // the last TCP send stays inline
	}
	for i, dst := range sends {
		s := stageSend{dst: dst, stage: index, tag: tag, word: x.folded, resilient: x.resilient}
		if i < last && p.conns[dst] != nil {
			select {
			case p.jobs[dst] <- s:
				handed++
				continue
			case <-p.closedCh: // the writer is gone; the inline send reports the close
			}
		}
		if settle(p.post(s)); err != nil {
			break
		}
	}
	for ; handed > 0; handed-- {
		settle(<-p.sent)
	}
	if err != nil {
		return fmt.Errorf("barrier stage %d: %w", index, err)
	}
	for _, src := range recvs {
		ms := p.tracer.BeginTag(recvSpan[p.TransportOf(src)], p.rank, index, src, tag)
		var msg mail
		skipIt := false
		if x.resilient {
			msg, skipIt, err = p.recvResilient(src, tag, x.deadline)
		} else {
			msg, err = p.recv(src, tag, x.deadline, nil)
		}
		ms.End()
		if err != nil {
			return fmt.Errorf("barrier stage %d: %w", index, err)
		}
		if skipIt {
			x.skipped = addRank(x.skipped, src)
		}
		x.folded = min(x.folded, msg.word)
	}
	if p.m.enabled {
		p.m.stageDur.Observe(time.Since(stageStart).Seconds())
	}
	return nil
}

// addRank inserts r into the sorted set ranks.
func addRank(ranks []int, r int) []int {
	if i, found := slices.BinarySearch(ranks, r); !found {
		ranks = slices.Insert(ranks, i, r)
	}
	return ranks
}

// stageSend is one send of a stage: what the stage loop hands a link writer
// and, with its outcome filled in, what comes back.
type stageSend struct {
	dst, stage, tag    int
	word               uint32
	resilient, skipped bool
	err                error
}

// post runs s under its message span on the calling goroutine.
func (p *Peer) post(s stageSend) stageSend {
	ms := p.tracer.BeginTag(sendSpan[p.TransportOf(s.dst)], p.rank, s.stage, s.dst, s.tag)
	if s.resilient {
		s.skipped, s.err = p.sendResilient(s.dst, s.tag, s.word)
	} else {
		s.err = p.send(s.dst, s.tag, nil, s.word)
	}
	ms.End()
	return s
}

// writer posts TCP link dst's handed-off sends until local Close. p.sent has
// room for every link, so a writer never blocks reporting.
func (p *Peer) writer(dst int) {
	defer p.wg.Done()
	for {
		select {
		case s := <-p.jobs[dst]:
			p.sent <- p.post(s)
		case <-p.closedCh:
			return
		}
	}
}

// sendResilient writes one empty frame unless the link to dst is already
// latched as failed, in which case it reports skipped. A write error latches
// the link (not the whole peer: the resilient path's point is to keep going)
// and reports skipped too — on TCP, writes to a dead peer may buffer
// silently or surface late, so the reader-side EOF latch is the primary
// detector and the write error just confirms it.
func (p *Peer) sendResilient(dst, tag int, word uint32) (skipped bool, err error) {
	if p.down.Load() { // some latch is set: find out whether it concerns dst
		p.mu.Lock()
		closed, linkErr := p.closed, p.linkErr[dst]
		p.mu.Unlock()
		if closed {
			return false, fmt.Errorf("netmpi: rank %d: send to %d on closed peer", p.rank, dst)
		}
		if linkErr != nil {
			return true, nil
		}
	}
	if werr := p.writeFrame(dst, tag, nil, word); werr != nil {
		p.fail(dst, werr)
		return true, nil
	}
	return false, nil
}

// recvResilient waits for a message from src unless (or until) the link to
// src is latched as failed. Mail that arrived before the failure is drained
// and delivered first, exactly like the peer-level path. It reports skipped
// when the link is down, a timeout error when the deadline passes on a
// healthy link — the certified-schedule hang case, which resilience cannot
// excuse — and a closed error on local Close.
func (p *Peer) recvResilient(src, tag int, deadline time.Duration) (msg mail, skipped bool, err error) {
	msg, why := p.await(src, tag, deadline, p.linkDown[src], p.closedCh)
	switch why {
	case gotMail:
		return msg, false, nil
	case wakeFirst:
		return msg, true, nil
	case wakeSecond:
		return msg, false, fmt.Errorf("netmpi: rank %d: peer closed while waiting for (src %d, tag %d)", p.rank, src, tag)
	}
	return msg, false, fmt.Errorf("netmpi: rank %d timed out after %v waiting for (src %d, tag %d) on a healthy link", p.rank, deadline, src, tag)
}
