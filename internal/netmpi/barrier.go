package netmpi

import (
	"fmt"
	"slices"
	"time"

	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// stageClass names the transport mix of one stage's links for span tagging:
// "tcp", "shm", or "mixed". On a pure-TCP mesh it is a constant — the common
// fast path costs one nil check.
func (p *Peer) stageClass(st run.StageOps) string {
	if p.nodes == nil {
		return "tcp"
	}
	sawTCP, sawShm := false, false
	classify := func(r int) {
		if p.TransportOf(r) == TransportShm {
			sawShm = true
		} else {
			sawTCP = true
		}
	}
	for _, dst := range st.Sends {
		classify(dst)
	}
	for _, src := range st.Recvs {
		classify(src)
	}
	switch {
	case sawTCP && sawShm:
		return "mixed"
	case sawShm:
		return "shm"
	default:
		return "tcp"
	}
}

// Message-span names, precomputed so the traced hot path does not
// concatenate per message. The suffix is the link's transport class; the
// span's peer attribute is the other end and the tag attribute is the wire
// tag, which is what lets critpath match a send span on one rank to the
// receive span it caused on another.
const (
	sendSpanTCP = "barrier.send:tcp"
	sendSpanShm = "barrier.send:shm"
	recvSpanTCP = "barrier.recv:tcp"
	recvSpanShm = "barrier.recv:shm"
)

func (p *Peer) sendSpanName(dst int) string {
	if p.TransportOf(dst) == TransportShm {
		return sendSpanShm
	}
	return sendSpanTCP
}

func (p *Peer) recvSpanName(src int) string {
	if p.TransportOf(src) == TransportShm {
		return recvSpanShm
	}
	return recvSpanTCP
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

// execute is the stage loop both executors share. Per stage it posts every
// send as Plan.Execute posts its Issend batch — TCP sends but the last to
// their link writers, so one stalled write holds only its link — and waits
// for all of them before the receives, each message under a span. resilient
// selects send/recv, which abort on the first failure anywhere, or
// sendResilient/recvResilient, which skip latched links and report them.
//
// Every frame carries folded, the running minimum of the caller's entry word
// and every word received in earlier stages. Sends precede receives in each
// stage, so the minimum travels exactly as Eq. 3 knowledge does, and on a
// barrier plan every rank returns the global minimum of the entry words
// (EpochRunner's plan version; the other callers pass 0).
func (p *Peer) execute(pl *run.Plan, tagBase int, deadline time.Duration, resilient bool, entry uint32) (skipped []int, folded uint32, err error) {
	if pl.P != p.size {
		return nil, 0, fmt.Errorf("netmpi: %d-rank plan on %d-rank mesh", pl.P, p.size)
	}
	folded = entry
	var barrierStart time.Time
	if p.m.enabled {
		barrierStart = time.Now()
	}
	settle := func(s stageSend) {
		if s.skipped {
			skipped = addRank(skipped, s.dst)
		}
		if err == nil {
			err = s.err
		}
	}
	for _, st := range pl.RankOps(p.rank) {
		tag := tagBase + st.Stage
		var stageStart time.Time
		if p.m.enabled {
			stageStart = time.Now()
		}
		var span telemetry.Span
		if p.tracer != nil {
			span = p.tracer.Begin("barrier.stage:"+p.stageClass(st), p.rank, st.Stage, -1)
		}
		handed, last := 0, len(st.Sends)-1
		for last >= 0 && p.conns[st.Sends[last]] == nil {
			last-- // the last TCP send stays inline
		}
		for i, dst := range st.Sends {
			s := stageSend{dst: dst, stage: st.Stage, tag: tag, word: folded, resilient: resilient}
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
			span.End()
			return nil, 0, fmt.Errorf("barrier stage %d: %w", st.Stage, err)
		}
		for _, src := range st.Recvs {
			ms := p.tracer.BeginTag(p.recvSpanName(src), p.rank, st.Stage, src, tag)
			var msg mail
			skipIt := false
			if resilient {
				msg, skipIt, err = p.recvResilient(src, tag, deadline)
			} else {
				msg, err = p.recv(src, tag, deadline, nil)
			}
			ms.End()
			if err != nil {
				span.End()
				return nil, 0, fmt.Errorf("barrier stage %d: %w", st.Stage, err)
			}
			if skipIt {
				skipped = addRank(skipped, src)
			}
			folded = min(folded, msg.word)
		}
		span.End()
		if p.m.enabled {
			p.m.stageDur.Observe(time.Since(stageStart).Seconds())
		}
	}
	if p.m.enabled {
		p.m.barrierDur.Observe(time.Since(barrierStart).Seconds())
	}
	return skipped, folded, nil
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
	ms := p.tracer.BeginTag(p.sendSpanName(s.dst), p.rank, s.stage, s.dst, s.tag)
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

// MeasureBarrier times iters wall-clock barrier executions after warmup
// untimed ones. All ranks must call it with the same arguments; the caller
// aggregates the per-rank durations.
func (p *Peer) MeasureBarrier(pl *run.Plan, warmup, iters int, deadline time.Duration) (time.Duration, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("netmpi: non-positive iteration count %d", iters)
	}
	tag := 0
	next := func() int {
		tag++
		return (tag % 2) * run.TagSpan
	}
	for i := 0; i < warmup; i++ {
		if err := p.Barrier(pl, next(), deadline); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := p.Barrier(pl, next(), deadline); err != nil {
			return 0, err
		}
	}
	return time.Duration(int64(time.Since(start)) / int64(iters)), nil
}
