package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
)

// Hop is one step of the realized critical path. From != To is a link hop:
// either the arrival of From's stage-Stage signal is what let To finish the
// stage, or (Blocked) From's own eager send to To blocked long enough to
// gate From's progress — a stage's writes overlap and the stage waits for
// all of them, so the longest write of a delayed or backpressured link
// stalls its sender, and the cause is still the link.
// From == To is a local hop: To's own work (send-batch drain, or a stage
// with no binding arrival) dominated.
type Hop struct {
	Stage     int
	From, To  int
	Transport string // link hops only
	// Sent/Arrived bound the determining interval (seconds): for an arrival
	// hop the send-span start and the delivery; for a blocked send the
	// write's start and return; for a local hop the stage interval, or, for
	// a rank idle in the stage, its previous completion at both ends.
	Sent, Arrived float64
	// Wait is how long To's receive blocked on the hop (arrival hops only).
	Wait float64
	// Blocked marks a send-side hop: the walk stays on From, whose write to
	// To was the stage's dominant stall.
	Blocked bool
}

func (h Hop) String() string {
	if h.From == h.To {
		return fmt.Sprintf("stage %d: rank %d local %.1fµs",
			h.Stage, h.To, (h.Arrived-h.Sent)*1e6)
	}
	if h.Blocked {
		return fmt.Sprintf("stage %d: %d→%d %s send blocked %.1fµs→%.1fµs (%.1fµs)",
			h.Stage, h.From, h.To, h.Transport, h.Sent*1e6, h.Arrived*1e6, (h.Arrived-h.Sent)*1e6)
	}
	return fmt.Sprintf("stage %d: %d→%d %s sent %.1fµs arrived %.1fµs (wait %.1fµs)",
		h.Stage, h.From, h.To, h.Transport, h.Sent*1e6, h.Arrived*1e6, h.Wait*1e6)
}

// CriticalPath walks the selected barrier instance backwards from its
// latest stage completion, yielding the realized analogue of
// predict.CriticalPath, earliest stage first. At each stage it asks what
// held the current rank: a send whose write blocked (stay on the rank), the
// receive that blocked longest if the rank spent more time blocked in it
// than in the stage before it began (hop to the sender), or the rank's own
// work (stay local). A receive that barely blocked found its message
// already waiting: the rank was late, not the link. Nil when the window
// holds no matched messages.
func (tl *Timeline) CriticalPath() []Hop {
	if len(tl.Messages) == 0 {
		return nil
	}
	// The completing rank: the one whose last stage ends latest. Stage
	// spans are authoritative when present; message arrivals fill in for
	// ranks whose stage spans fell outside the window.
	maxStage := 0
	for _, m := range tl.Messages {
		if m.Stage > maxStage {
			maxStage = m.Stage
		}
	}
	rank, end := -1, math.Inf(-1)
	for r := 0; r < tl.P; r++ {
		for k := maxStage; k >= 0; k-- {
			if _, e, ok := tl.stageInterval(r, k); ok {
				if e > end {
					rank, end = r, e
				}
				break
			}
		}
	}
	if rank < 0 {
		for _, m := range tl.Messages {
			if m.Arrived > end {
				rank, end = m.Dst, m.Arrived
			}
		}
	}
	if rank < 0 {
		return nil
	}

	var rev []Hop
	var done [][]float64 // StageDone, computed on the first idle stage
	r := rank
	for k := maxStage; k >= 0; k-- {
		var best, bestSend *Message
		for i := range tl.Messages {
			m := &tl.Messages[i]
			if m.Dst == r && m.Stage == k && (best == nil || m.Wait > best.Wait) {
				best = m
			}
			if m.Src == r && m.Stage == k &&
				(bestSend == nil || m.Sent-m.SendStart > bestSend.Sent-bestSend.SendStart) {
				bestSend = m
			}
		}
		stStart, stEnd, stOK := tl.stageInterval(r, k)
		// An eager send that blocked far longer than the rank then waited in
		// its receive is the stage's real stall: a stage's writes overlap and
		// its receives start once the longest one returns, so outbound
		// backpressure (or an injected link delay) shows up as that long
		// write, after which the inbound message is usually already
		// waiting and its negligible Wait would misdirect the walk to a
		// healthy link. The 50µs floor keeps ordinary syscall-scale writes
		// from ever outranking a genuine arrival.
		const minBlock = 50e-6
		if bestSend != nil {
			block := bestSend.Sent - bestSend.SendStart
			wait := 0.0
			if best != nil {
				wait = best.Wait
			}
			if block > minBlock && block > 2*wait {
				rev = append(rev, Hop{
					Stage: k, From: r, To: bestSend.Dst, Transport: bestSend.Transport,
					Sent: bestSend.SendStart, Arrived: bestSend.Sent, Blocked: true,
				})
				continue
			}
		}
		// The longest-blocked receive charges its link only if it blocked
		// longer, by over 0.1µs, than the rank had been in the stage when it
		// began; otherwise its message waited for a late receiver.
		const eps = 1e-7
		if best != nil && (!stOK || best.Wait > best.Arrived-best.Wait-stStart+eps) {
			rev = append(rev, Hop{
				Stage: k, From: best.Src, To: r, Transport: best.Transport,
				Sent: best.SendStart, Arrived: best.Arrived, Wait: best.Wait,
			})
			r = best.Src
			continue
		}
		if !stOK {
			// Idle in the stage, or its span fell outside the window: it
			// passed through at its previous completion.
			if done == nil {
				done = tl.StageDone()
			}
			stStart, stEnd = done[k][r], done[k][r]
		}
		rev = append(rev, Hop{Stage: k, From: r, To: r, Sent: stStart, Arrived: stEnd})
	}
	out := make([]Hop, len(rev))
	for i, h := range rev {
		out[len(rev)-1-i] = h
	}
	return out
}

// Span returns the realized makespan of the selected barrier instance: from
// the earliest stage entry (falling back to the earliest send) to the
// latest stage completion (falling back to the latest arrival).
func (tl *Timeline) Span() (start, end float64) {
	start, end = math.Inf(1), math.Inf(-1)
	for rk := range tl.stages {
		if s, e, ok := tl.stageInterval(rk[0], rk[1]); ok {
			if rk[1] == 0 {
				start = min(start, s)
			}
			end = max(end, e)
		}
	}
	for _, m := range tl.Messages {
		start, end = min(start, m.SendStart), max(end, m.Arrived)
	}
	return start, end
}

// StageDone returns the selected instance's completion times in the shape
// predict.Timeline predicts them: out[k][r] is when rank r completed stage k,
// on the clock Span reports, and a rank idle in a stage carries its previous
// completion forward — the instance's start for stage 0 — as the model does.
func (tl *Timeline) StageDone() [][]float64 {
	stages := 0
	for _, m := range tl.Messages {
		stages = max(stages, m.Stage+1)
	}
	start, _ := tl.Span()
	out := make([][]float64, stages)
	for k := range out {
		out[k] = make([]float64, tl.P)
		for r := range out[k] {
			if _, end, ok := tl.stageInterval(r, k); ok {
				out[k][r] = end
			} else if k > 0 {
				out[k][r] = out[k-1][r]
			} else {
				out[k][r] = start
			}
		}
	}
	return out
}

// Gantt renders the selected instance as a per-rank text timeline: each row
// is a rank, each message is drawn from its send column to its arrival
// column. width is the number of character columns.
func (tl *Timeline) Gantt(width int) string {
	start, end := tl.Span()
	if len(tl.Messages) == 0 || end <= start || width < 10 {
		return "(no events)\n"
	}
	col := func(t float64) int {
		return min(max(int(float64(width-1)*(t-start)/(end-start)), 0), width-1)
	}
	rows := make([][]byte, tl.P)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, m := range tl.Messages {
		c0, c1 := col(m.SendStart), col(m.Arrived)
		for c := c0 + 1; c < c1; c++ {
			if rows[m.Dst][c] == '.' {
				rows[m.Dst][c] = '-' // message in flight toward this rank
			}
		}
		rows[m.Dst][c1] = '<'
		rows[m.Src][c0] = '>'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t ∈ [%.1fµs, %.1fµs], %d messages\n", start*1e6, end*1e6, len(tl.Messages))
	for i, row := range rows {
		fmt.Fprintf(&b, "%3d %s\n", i, row)
	}
	return b.String()
}

// Report is the realized-vs-predicted critical-path comparison of one
// barrier instance plus the window's per-link blame table.
type Report struct {
	P       int
	TagBase int
	// Realized is the observed chain; RealizedCost its makespan (seconds).
	Realized     []Hop
	RealizedCost float64
	// Predicted is the model's chain under the same schedule and profile;
	// PredictedCost is predict.Cost. Empty when Analyze ran without a
	// predictor.
	Predicted     []predict.PathStep
	PredictedCost float64
	// Blame is the per-direction comparison of observed delivery floors
	// against the profiled O+L, sorted worst first, with realized- and
	// predicted-path membership marked.
	Blame []Blame
}

// Analyze extracts the realized critical path of tl's selected barrier and,
// when a predictor and schedule are supplied, diffs it against the
// predicted chain and scores every observed link against the profile. pd
// and s may be nil (realized path only; blame needs pd's profile).
func Analyze(tl *Timeline, pd *predict.Predictor, s *sched.Schedule) *Report {
	rep := &Report{P: tl.P, TagBase: tl.TagBase, Realized: tl.CriticalPath()}
	if start, end := tl.Span(); end > start {
		rep.RealizedCost = end - start
	}
	if pd != nil && s != nil {
		rep.Predicted = pd.CriticalPath(s)
		rep.PredictedCost = pd.Cost(s)
	}
	if pd != nil && pd.Prof != nil {
		rep.Blame = tl.LinkBlame(pd.Prof)
		onReal := map[profile.Link]bool{}
		for _, h := range rep.Realized {
			if h.From != h.To {
				onReal[profile.Link{From: h.From, To: h.To}] = true
			}
		}
		onPred := map[profile.Link]bool{}
		for _, st := range rep.Predicted {
			if st.From != st.To {
				onPred[profile.Link{From: st.From, To: st.To}] = true
			}
		}
		for i := range rep.Blame {
			l := profile.Link{From: rep.Blame[i].From, To: rep.Blame[i].To}
			rep.Blame[i].OnRealized = onReal[l]
			rep.Blame[i].OnPredicted = onPred[l]
		}
	}
	return rep
}

// String renders the report the way the CLIs print it.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "realized critical path (tag base %d, makespan %.1fµs):\n", rep.TagBase, rep.RealizedCost*1e6)
	if len(rep.Realized) == 0 {
		b.WriteString("  (no matched messages in window)\n")
	}
	for _, h := range rep.Realized {
		fmt.Fprintf(&b, "  %s\n", h)
	}
	if len(rep.Predicted) > 0 {
		fmt.Fprintf(&b, "predicted critical path (cost %.1fµs):\n", rep.PredictedCost*1e6)
		for _, st := range rep.Predicted {
			if st.From == st.To {
				fmt.Fprintf(&b, "  stage %d: rank %d local, done %.1fµs\n", st.Stage, st.To, st.At*1e6)
			} else {
				fmt.Fprintf(&b, "  stage %d: %d→%d, done %.1fµs\n", st.Stage, st.From, st.To, st.At*1e6)
			}
		}
	}
	if len(rep.Blame) > 0 {
		// The blame table once more, by link class: where the profile is
		// wrong about a whole class, not one link.
		b.WriteString("per-class residual (mean observed delivery floor vs mean profile O+L):\n")
		type sums struct{ n, observed, expected float64 }
		classes := map[string]*sums{}
		var names []string
		for _, bl := range rep.Blame {
			c := classes[bl.Transport]
			if c == nil {
				c = &sums{}
				classes[bl.Transport] = c
				names = append(names, bl.Transport)
			}
			c.n, c.observed, c.expected = c.n+1, c.observed+bl.Observed, c.expected+bl.Expected
		}
		sort.Strings(names)
		for _, name := range names {
			c := classes[name]
			fmt.Fprintf(&b, "  %s: %.0f links, observed %.1fµs expected %.1fµs (%+.1f%%)\n",
				name, c.n, c.observed/c.n*1e6, c.expected/c.n*1e6, 100*(c.observed-c.expected)/c.expected)
		}
		b.WriteString("slowest links — per-link blame (observed delivery floor vs profile O+L):\n")
		for i, bl := range rep.Blame {
			if i >= 8 && bl.Score == 0 {
				fmt.Fprintf(&b, "  ... %d more within tolerance\n", len(rep.Blame)-i)
				break
			}
			marks := ""
			if bl.OnRealized {
				marks += " [realized]"
			}
			if bl.OnPredicted {
				marks += " [predicted]"
			}
			fmt.Fprintf(&b, "  %d→%d %s: observed %.1fµs expected %.1fµs score %.2f (n=%d)%s\n",
				bl.From, bl.To, bl.Transport, bl.Observed*1e6, bl.Expected*1e6, bl.Score, bl.Count, marks)
		}
	}
	return b.String()
}
