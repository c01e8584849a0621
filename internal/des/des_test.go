package des

import (
	"sort"
	"testing"
	"testing/quick"

	"topobarrier/internal/stats"
)

// drain runs closure events until the queue is empty and returns how many ran.
func drain(q *Queue[func()]) int {
	n := 0
	for fn, ok := q.Next(); ok; fn, ok = q.Next() {
		fn()
		n++
	}
	return n
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var q Queue[func()]
	var order []int
	q.Schedule(3.0, func() { order = append(order, 3) })
	q.Schedule(1.0, func() { order = append(order, 1) })
	q.Schedule(2.0, func() { order = append(order, 2) })
	if n := drain(&q); n != 3 {
		t.Fatalf("Drain ran %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if q.Now() != 3.0 {
		t.Fatalf("Now() = %g", q.Now())
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	var q Queue[func()]
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(1.0, func() { order = append(order, i) })
	}
	drain(&q)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsMayScheduleMoreEvents(t *testing.T) {
	var q Queue[func()]
	var hits []float64
	var chain func(depth int)
	chain = func(depth int) {
		hits = append(hits, q.Now())
		if depth < 5 {
			q.Schedule(q.Now()+1, func() { chain(depth + 1) })
		}
	}
	q.Schedule(0, func() { chain(0) })
	drain(&q)
	if len(hits) != 6 || hits[5] != 5 {
		t.Fatalf("chain hits = %v", hits)
	}
}

func TestScheduleIntoPastPanics(t *testing.T) {
	var q Queue[func()]
	q.Schedule(2, func() {})
	q.Next()
	defer func() {
		if recover() == nil {
			t.Fatalf("past scheduling did not panic")
		}
	}()
	q.Schedule(1, func() {})
}

func TestRunNextEmpty(t *testing.T) {
	var q Queue[func()]
	if _, ok := q.Next(); ok {
		t.Fatalf("Next on empty queue returned an event")
	}
	if q.Now() != 0 {
		t.Fatalf("Now() = %g on a queue that never ran", q.Now())
	}
}

// Property: events pop in exactly (time, scheduling order) — the order a
// stable sort by time gives — including ties, and with pops interleaved
// between schedules.
func TestQuickMonotoneDelivery(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		var q Queue[int]
		type ev struct {
			at float64
			id int
		}
		var pending, got, want []ev
		flush := func(k int) { // pop k events, checking against the stable order
			sort.SliceStable(pending, func(a, b int) bool { return pending[a].at < pending[b].at })
			want = append(want, pending[:k]...)
			pending = pending[k:]
			for ; k > 0; k-- {
				id, ok := q.Next()
				if !ok {
					return
				}
				got = append(got, ev{q.Now(), id})
			}
		}
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			// A coarse grid forces ties; never earlier than the clock.
			at := q.Now() + float64(rng.Intn(8))
			q.Schedule(at, i)
			pending = append(pending, ev{at, i})
			if rng.Intn(4) == 0 {
				flush(rng.Intn(len(pending) + 1))
			}
		}
		flush(len(pending))
		if _, ok := q.Next(); ok || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	var q Queue[func()]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+1, func() {})
		q.Next()
	}
}
