// Shared-memory intra-node transport: one hop per signal.
//
// A barrier message carries no payload, so every layer between "the sender
// decided to signal" and "the waiter sees it" is pure overhead. Co-located
// ranks therefore share the receiving side's mailboxes outright: the segment
// of a rank pair owns one inbox per direction — the same inbox/mailbox types
// the TCP readers feed, under the same receiving rank's lock, which the
// ShmHub owns — and a send on a shared-memory link is
// inbox.box(tag).put(mail{payload, word}, w) on the sender's own goroutine,
// the version word (epoch.go) riding beside the payload as in a TCP header.
// Nothing sits in between — no queue of frames, no goroutine to forward
// them: a put that finds the receiver's program waiting delivers into it
// under that one lock, and the receiver's Recv resolves (src, tag) to the
// very mailbox the sender wrote, so Recv, a step program, the resilient receive
// path and every failure latch behave exactly as they do over TCP. Mail sent
// before the receiver's Dial attaches simply waits in the segment.
//
// Close protocol. A socket reports a vanished peer with EOF; here the closing
// peer reports itself. Peer.Close marks each outgoing link closed and calls
// the attached consumer's fail(errShmPeerClosed) directly, which latches the
// same "peer exited or crashed" failure a TCP EOF produces and wakes every
// blocked receive at once. All of the closer's sends completed before its
// Close began, so already-delivered mail stays readable — receives take
// before they look at a latch. A consumer that attaches after the close
// learns of it from attach and latches the failure itself.
package netmpi

import "errors"

// errShmPeerClosed is the shm transport's EOF: the co-located peer closed
// its side of the segment.
var errShmPeerClosed = errors.New("shm peer closed")

// shmLink is one direction of a shared-memory link: the receiver's inbox for
// this source, plus the close handshake, which the inbox's map lock guards.
type shmLink struct {
	inbox
	closed   bool  // the sending peer called Close
	consumer *Peer // the receiving peer, once its Dial attached
}

// attach registers the receiving peer and reports whether the sender had
// already closed, in which case the caller latches the failure itself.
func (l *shmLink) attach(consumer *Peer) (closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.consumer = consumer
	return l.closed
}

// close marks the sending side gone and returns the consumer to notify, nil
// if none has attached yet.
func (l *shmLink) close() *Peer {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return l.consumer
}

// shmSegment is the shared state of one unordered rank pair {lo, hi}: one
// link per direction, named by its sender.
type shmSegment struct {
	fromLo, fromHi shmLink
}

// links returns (outbound, inbound) for the given endpoint rank of the pair.
func (s *shmSegment) links(self, other int) (out, in *shmLink) {
	if self < other {
		return &s.fromLo, &s.fromHi
	}
	return &s.fromHi, &s.fromLo
}
