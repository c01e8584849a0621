// Package des provides the discrete-event core of the simulated cluster: a
// virtual clock and a deterministic pending-event queue.
//
// Events at equal virtual times are delivered in scheduling order (a
// monotonically increasing sequence number breaks ties), so a simulation that
// schedules events deterministically replays bit-identically.
package des

import "fmt"

// Queue is a pending-event set ordered by (time, insertion sequence). Events
// are values of the caller's type E, stored inline in a binary heap: nothing
// is boxed and scheduling allocates only when the heap grows. The zero value
// is ready to use.
type Queue[E any] struct {
	h   []entry[E]
	seq uint64
	now float64
}

type entry[E any] struct {
	at  float64
	seq uint64
	ev  E
}

func (a *entry[E]) before(b *entry[E]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Reset empties the queue and rewinds its clock and sequence to those of a
// new one, keeping the heap's capacity.
func (q *Queue[E]) Reset() {
	clear(q.h)
	q.h = q.h[:0]
	q.seq, q.now = 0, 0
}

// Now returns the virtual time of the most recently popped event (0 before
// any event was popped).
func (q *Queue[E]) Now() float64 { return q.now }

// Schedule enqueues ev for virtual time t. Scheduling into the past (before
// the last popped event) panics: it would corrupt causality.
func (q *Queue[E]) Schedule(t float64, ev E) {
	if t < q.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%g < now=%g)", t, q.now))
	}
	q.seq++
	q.h = append(q.h, entry[E]{at: t, seq: q.seq, ev: ev})
	// Sift the new entry up.
	h := q.h
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// Next pops the earliest pending event and advances the clock to its time.
// It reports whether an event was available.
func (q *Queue[E]) Next() (ev E, ok bool) {
	h := q.h
	if len(h) == 0 {
		return ev, false
	}
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = entry[E]{} // drop the payload's references
	h = h[:n]
	q.h = h
	// Sift the former last entry down from the root.
	i := 0
	for child := 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = e
	}
	q.now = top.at
	return top.ev, true
}
