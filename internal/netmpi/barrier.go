package netmpi

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
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
// [tagBase, tagBase+plan stages). The deadline bounds each receive: no
// receive waits longer than it since the rank last made progress (cursor.go).
// Any transport failure or timeout aborts the barrier with an error naming
// the stage and the link.
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
	c := &p.cur
	c.one[0] = mpi.Step{Recvs: recvs, Sends: sends}
	_, err := c.program(c.one[:], tag, 0, false, nil)
	return err
}

var _ run.Stager = (*Peer)(nil)

// program runs steps under tagBase as a program of the cursor's rank, bound
// (and so checked) afresh into the cursor's own binding: Stage's one-step
// program on cur, the probe's on pcur. A non-nil done, at least len(steps)
// long, gets each step's completion time: seconds since the program began,
// on the rank's monotonic clock.
func (c *cursor) program(steps []mpi.Step, tagBase int, deadline time.Duration, resilient bool, done []float64) ([]int, error) {
	p := c.p
	if done != nil && len(done) < len(steps) {
		return nil, fmt.Errorf("netmpi: rank %d: %d completion times for %d steps", p.rank, len(done), len(steps))
	}
	if err := p.bind(&c.progBind, steps, tagBase); err != nil {
		return nil, err
	}
	skipped, _, err := c.run(&c.progBind, deadline, resilient, 0, done)
	return skipped, err
}

// execute runs the rank's program of a plan — Barrier, BarrierResilient and
// EpochRunner — threading the caller's deadline, resilience and entry word
// through it, and returns the skipped ranks and the folded word.
//
// Every frame carries the folded word: the running minimum of the caller's
// entry word and every word received in earlier steps. A step's sends leave
// with the word folded before its receives, so the minimum travels exactly
// as Eq. 3 knowledge does, and on a barrier plan every rank ends with the
// global minimum of the entry words (EpochRunner's plan version; the other
// callers pass 0).
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
	c := &p.cur
	b, err := c.bound(pl.RankOps(p.rank), tagBase)
	if err != nil {
		return nil, 0, err
	}
	skipped, folded, err = c.run(b, deadline, resilient, entry, nil)
	if err == nil && p.m.enabled {
		p.m.barrierDur.Observe(time.Since(barrierStart).Seconds())
	}
	return skipped, folded, err
}

// addRank inserts r into the sorted set ranks.
func addRank(ranks []int, r int) []int {
	if i, found := slices.BinarySearch(ranks, r); !found {
		ranks = slices.Insert(ranks, i, r)
	}
	return ranks
}

// linkLatched reports whether the link from src has latched a failure.
func (p *Peer) linkLatched(src int) bool {
	if !p.down.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.linkErr[src] != nil
}

// sendResilient writes one frame unless the link to dst is already
// latched as failed, in which case it reports skipped. A write error latches
// the link (not the whole peer: the resilient path's point is to keep going)
// and reports skipped too — on TCP, writes to a dead peer may buffer
// silently or surface late, so the reader-side EOF latch is the primary
// detector and the write error just confirms it. box and w are as for send.
func (p *Peer) sendResilient(dst, tag int, payload []byte, word uint32, box *mailbox, w *worklist) (skipped bool, err error) {
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
	if err := p.writeFrame(dst, tag, payload, word, box, w); err != nil {
		p.fail(dst, err)
		return true, nil
	}
	return false, nil
}
