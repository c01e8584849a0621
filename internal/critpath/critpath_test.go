package critpath

import (
	"math"
	"slices"
	"testing"
	"time"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

const us = time.Microsecond

// Synthetic span builders mirroring what netmpi emits: a send span belongs
// to the sender (Rank=src, Peer=dst), a recv span to the receiver (Rank=dst,
// Peer=src), stage spans to the rank executing the stage.
func sendEv(src, dst, stage, tag int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.send:tcp", Rank: src, Stage: stage, Peer: dst, Tag: tag, Start: start, Dur: dur}
}

func recvEv(src, dst, stage, tag int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.recv:tcp", Rank: dst, Stage: stage, Peer: src, Tag: tag, Start: start, Dur: dur}
}

func stageEv(rank, stage int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.stage:test", Rank: rank, Stage: stage, Peer: -1, Tag: -1, Start: start, Dur: dur}
}

// exchange appends a full matched message: send span plus the recv span
// whose End is the arrival.
func exchange(evs []telemetry.SpanEvent, src, dst, stage, tag int, sendStart, sendDur, recvStart, recvEnd time.Duration) []telemetry.SpanEvent {
	return append(evs,
		sendEv(src, dst, stage, tag, sendStart, sendDur),
		recvEv(src, dst, stage, tag, recvStart, recvEnd-recvStart))
}

// TestMergeFIFOMatching pins the core pairing rule: the k-th send on a
// (src,dst,tag) key matches the k-th recv on it, repeats of one tag window
// get distinct Seq, and leftovers on either side are counted unmatched.
func TestMergeFIFOMatching(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Two barriers reusing tag 5 on link 0→1 (same key, seq 0 and 1).
	evs = exchange(evs, 0, 1, 0, 5, 10*us, us, 9*us, 13*us)
	evs = exchange(evs, 0, 1, 0, 5, 50*us, us, 49*us, 53*us)
	// A send with no recv, and a recv with no send, on other keys.
	evs = append(evs, sendEv(0, 2, 0, 5, 20*us, us))
	evs = append(evs, recvEv(2, 1, 0, 7, 30*us, 2*us))
	tl, err := Merge(evs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.All) != 2 {
		t.Fatalf("matched %d messages, want 2: %+v", len(tl.All), tl.All)
	}
	if tl.Unmatched != 2 {
		t.Errorf("unmatched %d, want 2", tl.Unmatched)
	}
	for i, m := range tl.All {
		if m.Src != 0 || m.Dst != 1 || m.Tag != 5 || m.Seq != i {
			t.Errorf("message %d = %+v, want 0→1 tag 5 seq %d", i, m, i)
		}
	}
	if got := tl.All[0].Arrived; math.Abs(got-13e-6) > 1e-9 {
		t.Errorf("first arrival %g, want 13µs", got)
	}
	if got := tl.All[1].Wait; math.Abs(got-4e-6) > 1e-9 {
		t.Errorf("second wait %g, want 4µs", got)
	}
	// Auto-selection picks the instance with the latest arrival: seq 1.
	if tl.Seq != 1 || len(tl.Messages) != 1 {
		t.Errorf("selected seq %d with %d messages, want seq 1 with 1", tl.Seq, len(tl.Messages))
	}
}

// TestMergeInstanceSelection pins the barrier-instance disambiguation: two
// barriers with different tag bases in one window, auto-select takes the
// later, pinning takes the named one, pinning a missing base errors.
func TestMergeInstanceSelection(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Alignment barrier, tag base 0: stage 0 uses tag 0, stage 1 tag 1.
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 10*us, 13*us)
	evs = exchange(evs, 1, 0, 1, 1, 14*us, us, 14*us, 17*us)
	// Traced barrier, tag base 1024.
	evs = exchange(evs, 0, 1, 0, 1024, 30*us, us, 30*us, 33*us)
	evs = exchange(evs, 1, 0, 1, 1025, 34*us, us, 34*us, 37*us)

	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TagBase != 1024 || len(tl.Messages) != 2 {
		t.Errorf("auto-select got base %d with %d messages, want 1024 with 2", tl.TagBase, len(tl.Messages))
	}
	if len(tl.All) != 4 {
		t.Errorf("All must keep every matched message: %d", len(tl.All))
	}

	tl, err = Merge(evs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TagBase != 0 || len(tl.Messages) != 2 {
		t.Errorf("pinned select got base %d with %d messages, want 0 with 2", tl.TagBase, len(tl.Messages))
	}

	if _, err := Merge(evs, 2, 512); err == nil {
		t.Error("pinning an absent tag base must error")
	}
}

// TestMergeValidation pins the input contract.
func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil, 0, -1); err == nil {
		t.Error("non-positive P accepted")
	}
	bad := []telemetry.SpanEvent{sendEv(0, 9, 0, 0, 0, us)}
	if _, err := Merge(bad, 2, -1); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

// TestCriticalPathSynthetic builds a 4-rank, 2-stage barrier where one slow
// link visibly determines completion and checks the backward walk finds
// exactly that chain, earliest stage first.
func TestCriticalPathSynthetic(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Stage 0: 0→1 is slow (arrives 50µs), 2→3 is fast.
	evs = exchange(evs, 0, 1, 0, 100, 10*us, us, 9*us, 50*us)
	evs = exchange(evs, 2, 3, 0, 100, 10*us, us, 9*us, 14*us)
	// Stage 1: 1→2's send is gated on 1's late stage-0 completion.
	evs = exchange(evs, 1, 2, 1, 101, 51*us, us, 15*us, 56*us)
	evs = exchange(evs, 3, 0, 1, 101, 15*us, us, 12*us, 18*us)
	// Stage spans bracketing the work.
	evs = append(evs,
		stageEv(0, 0, 9*us, 2*us), stageEv(1, 0, 9*us, 41*us),
		stageEv(2, 0, 9*us, 5*us), stageEv(3, 0, 9*us, 5*us),
		stageEv(0, 1, 11*us, 7*us), stageEv(1, 1, 50*us, 2*us),
		stageEv(2, 1, 14*us, 42*us), stageEv(3, 1, 14*us, 2*us),
	)
	tl, err := Merge(evs, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	hops := tl.CriticalPath()
	if len(hops) != 2 {
		t.Fatalf("path %v, want 2 hops", hops)
	}
	// Completion is rank 2's stage-1 end (56µs); its determining arrival is
	// 1→2, and rank 1's stage-0 completion was determined by 0→1.
	if hops[1].From != 1 || hops[1].To != 2 || hops[1].Stage != 1 {
		t.Errorf("final hop %+v, want 1→2 at stage 1", hops[1])
	}
	if hops[0].From != 0 || hops[0].To != 1 || hops[0].Stage != 0 {
		t.Errorf("first hop %+v, want 0→1 at stage 0", hops[0])
	}
	if start, end := tl.Span(); math.Abs((end-start)-47e-6) > 1e-9 {
		t.Errorf("span [%g, %g], want 9µs→56µs", start*1e6, end*1e6)
	}
}

// TestCriticalPathLocalHop pins whose fault a stage's wait was: a receive
// is a link hop only if it blocked longer than the rank had spent in the
// stage before it began, the binding receive is the one that blocked
// longest rather than the last to return, and a message found waiting in a
// late receiver's mailbox leaves the walk on the receiver. Each case names
// the one hop per stage the realized path must be.
func TestCriticalPathLocalHop(t *testing.T) {
	type hop struct {
		stage, from, to int
		blocked         bool
	}
	for _, tc := range []struct {
		name string
		p    int
		evs  []telemetry.SpanEvent
		want []hop
	}{{
		// 0→1 was sent at 10µs. Rank 1 entered the stage at 20µs, spent
		// 7µs on its own work before its receive began and found the
		// message waiting: its own lateness gated it, not the link.
		name: "late receiver",
		p:    2,
		evs: exchange([]telemetry.SpanEvent{stageEv(1, 0, 20*us, 10*us), stageEv(0, 0, 9*us, 2*us)},
			0, 1, 0, 10, 10*us, us, 27*us, 28*us),
		want: []hop{{0, 1, 1, false}},
	}, {
		// A live P = 8 dissemination with 6→7 delayed 1.1ms. Rank 6's
		// stage-0 write to 7 blocked; every receive after it waited only
		// 0.4–0.5µs, after the rank's own sends. The walk must stay on
		// rank 6 back to the blocked write instead of charging 2→6.
		name: "delayed write, late receiver",
		p:    8,
		evs: func() []telemetry.SpanEvent {
			evs := []telemetry.SpanEvent{
				stageEv(6, 0, 10*us, 1101*us), stageEv(6, 1, 1111*us, 3*us), stageEv(6, 2, 1114*us, 3*us),
				stageEv(7, 0, 10*us, 1101*us+500),
			}
			evs = exchange(evs, 6, 7, 0, 0, 10*us, 1100*us, 12*us, 1111*us)
			evs = exchange(evs, 5, 6, 0, 0, 10*us, 2*us, 1110*us, 1110*us+500)
			evs = exchange(evs, 6, 0, 1, 1, 1111*us, 2*us, 15*us, 1113*us+200)
			evs = exchange(evs, 4, 6, 1, 1, 18*us, 2*us, 1113*us, 1113*us+400)
			evs = exchange(evs, 6, 2, 2, 2, 1114*us, 2*us, 25*us, 1116*us+500)
			return exchange(evs, 2, 6, 2, 2, 20*us, 2*us, 1116*us, 1116*us+400)
		}(),
		want: []hop{{0, 6, 7, true}, {1, 6, 6, false}, {2, 6, 6, false}},
	}, {
		// Rank 3 takes three messages in turn. The first blocked 30µs on
		// rank 0's late send; the other two had long arrived and returned
		// last. The binding arrival is 0→3.
		name: "fan-in, first receive binds",
		p:    4,
		evs: func() []telemetry.SpanEvent {
			evs := []telemetry.SpanEvent{
				stageEv(3, 0, 10*us, 33*us), stageEv(0, 0, 37*us, 3*us),
				stageEv(1, 0, 11*us, 3*us), stageEv(2, 0, 11*us, 3*us),
			}
			evs = exchange(evs, 0, 3, 0, 0, 38*us, us, 10*us, 40*us)
			evs = exchange(evs, 1, 3, 0, 0, 12*us, us, 40*us, 41*us)
			return exchange(evs, 2, 3, 0, 0, 12*us, us, 41*us, 42*us)
		}(),
		want: []hop{{0, 0, 3, false}},
	}} {
		tl, err := Merge(tc.evs, tc.p, -1)
		if err != nil {
			t.Fatal(err)
		}
		path := tl.CriticalPath()
		got := make([]hop, len(path))
		for i, h := range path {
			got[i] = hop{h.Stage, h.From, h.To, h.Blocked}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: path %v, want %+v", tc.name, path, tc.want)
		}
	}
}

// uniformProfile builds a profile with O=o and L=l on every off-diagonal
// direction.
func uniformProfile(p int, o, l float64) *profile.Profile {
	pf := profile.New("test", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			pf.O.Set(i, j, o)
			pf.L.Set(i, j, l)
		}
	}
	return pf
}

// TestLinkBlameScoring pins the one-sided blame math: floors above the
// profiled O+L score positive, floors at or below it score zero, and the
// table sorts worst first.
func TestLinkBlameScoring(t *testing.T) {
	pf := uniformProfile(3, 2e-6, 8e-6) // expected O+L = 10µs
	var evs []telemetry.SpanEvent
	// 0→1: two observations, floor 30µs → score (30−10)/10 = 2.
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 9*us, 45*us)
	evs = exchange(evs, 0, 1, 0, 1, 50*us, us, 49*us, 80*us)
	// 1→2: floor 5µs, faster than the model → score 0, not negative.
	evs = exchange(evs, 1, 2, 0, 0, 10*us, us, 9*us, 15*us)
	tl, err := Merge(evs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	bl := tl.LinkBlame(pf)
	if len(bl) != 2 {
		t.Fatalf("blame table %+v, want 2 rows", bl)
	}
	if bl[0].From != 0 || bl[0].To != 1 || math.Abs(bl[0].Score-2) > 1e-6 {
		t.Errorf("worst row %+v, want 0→1 score 2", bl[0])
	}
	if bl[0].Count != 2 {
		t.Errorf("0→1 count %d, want 2", bl[0].Count)
	}
	if bl[1].Score != 0 {
		t.Errorf("fast link scored %g, want 0 (one-sided)", bl[1].Score)
	}
	links := tl.Implicated(pf, 0.5)
	if len(links) != 1 || links[0] != (profile.Link{From: 0, To: 1}) {
		t.Errorf("implicated %v, want exactly 0→1", links)
	}
	if got := tl.Implicated(pf, 10); len(got) != 0 {
		t.Errorf("tolerance 10 still implicated %v", got)
	}
}

// schedPair is a one-stage 2-rank exchange barrier.
func schedPair() *sched.Schedule {
	s := sched.New("pair", 2)
	m := mat.NewBool(2)
	m.Set(0, 1, true)
	m.Set(1, 0, true)
	s.AddStage(m)
	return s
}

// TestAnalyzeMarksPathMembership checks the report wiring: blame rows on the
// realized and predicted chains are marked as such.
func TestAnalyzeMarksPathMembership(t *testing.T) {
	pf := uniformProfile(2, 2e-6, 8e-6)
	var evs []telemetry.SpanEvent
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 9*us, 45*us)
	evs = append(evs, stageEv(0, 0, 9*us, 2*us), stageEv(1, 0, 9*us, 37*us))
	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	pd := predict.New(pf)
	s := schedPair()
	rep := Analyze(tl, pd, s)
	if len(rep.Realized) == 0 || rep.RealizedCost <= 0 {
		t.Fatalf("empty realized path in %+v", rep)
	}
	if len(rep.Predicted) != s.NumStages() || rep.PredictedCost <= 0 {
		t.Fatalf("predicted chain %+v", rep.Predicted)
	}
	var marked bool
	for _, b := range rep.Blame {
		if b.From == 0 && b.To == 1 && b.OnRealized {
			marked = true
		}
	}
	if !marked {
		t.Errorf("0→1 is the realized path but unmarked: %+v", rep.Blame)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}
