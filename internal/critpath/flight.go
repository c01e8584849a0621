package critpath

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// Window is one drained span window held by the flight recorder.
type Window struct {
	Seq    int
	Label  string
	CutAt  time.Time
	Events []telemetry.SpanEvent
}

// FlightRecorder keeps a bounded ring of recent trace windows over one
// tracer, so the moments before a failure are still on hand when it
// happens. Drivers Cut a window at natural boundaries (after a measurement
// pass, on a drift check) and Dump writes every retained window as JSON
// plus a Chrome trace when a barrier fails, a link latches, or retune flags
// drift. All methods are safe for concurrent use and no-ops on a nil
// recorder, matching the telemetry disabled-path convention.
type FlightRecorder struct {
	mu     sync.Mutex
	tr     *telemetry.Tracer
	p      int
	limit  int
	dir    string
	seq    int
	nDumps int
	wins   []Window

	pd *predict.Predictor
	s  *sched.Schedule
}

// NewFlightRecorder wraps tracer for a p-rank mesh, retaining at most limit
// windows (a non-positive limit defaults to 16) and dumping into dir.
func NewFlightRecorder(tracer *telemetry.Tracer, p, limit int, dir string) *FlightRecorder {
	if limit <= 0 {
		limit = 16
	}
	return &FlightRecorder{tr: tracer, p: p, limit: limit, dir: dir}
}

// SetModel attaches the predictor and schedule the mesh is running, so
// dumps and the debug handler can include the realized-vs-predicted report.
// Both may change across plan hot-swaps; the latest pair wins.
func (f *FlightRecorder) SetModel(pd *predict.Predictor, s *sched.Schedule) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.pd, f.s = pd, s
	f.mu.Unlock()
}

// Cut drains the tracer into a new window and returns its event count.
// Empty drains leave the ring untouched. No-op on a nil recorder.
func (f *FlightRecorder) Cut(label string) int {
	if f == nil {
		return 0
	}
	evs := f.tr.Take()
	if len(evs) == 0 {
		return 0
	}
	f.mu.Lock()
	f.seq++
	f.wins = append(f.wins, Window{Seq: f.seq, Label: label, CutAt: time.Now(), Events: evs})
	if len(f.wins) > f.limit {
		f.wins = append(f.wins[:0], f.wins[len(f.wins)-f.limit:]...)
	}
	f.mu.Unlock()
	return len(evs)
}

// ImplicatedFresh drains the tracer into a new window (label) and blames
// only that window against pf — the spans recorded since the previous cut.
// Floors are minima, so blaming the whole ring would let healthy-era
// observations mask a link that drifted later; the retune controller cuts a
// window per consumed observation window and asks this method about exactly
// the one whose drift triggered it. Nil when nothing fresh was traced (the
// caller should fall back to a full screen). The window stays in the ring
// for the next Dump.
func (f *FlightRecorder) ImplicatedFresh(pf *profile.Profile, tol float64, label string) []profile.Link {
	if f == nil {
		return nil
	}
	if f.Cut(label) == 0 {
		return nil
	}
	f.mu.Lock()
	evs := f.wins[len(f.wins)-1].Events
	f.mu.Unlock()
	tl, err := Merge(evs, f.p, -1)
	if err != nil {
		return nil
	}
	return tl.Implicated(pf, tol)
}

// dumpDoc is the JSON half of a flight dump.
type dumpDoc struct {
	Reason  string       `json:"reason"`
	At      time.Time    `json:"at"`
	P       int          `json:"p"`
	Dropped uint64       `json:"dropped_spans"`
	Windows []windowMeta `json:"windows"`
	Report  *Report      `json:"report,omitempty"`
	Error   string       `json:"error,omitempty"`
}

type windowMeta struct {
	Seq    int       `json:"seq"`
	Label  string    `json:"label"`
	CutAt  time.Time `json:"cut_at"`
	Events int       `json:"events"`
}

// snapshot assembles the dump document of the retained windows plus extra
// (spans the caller read off the tracer without consuming them) and returns
// it with every span it covers.
func (f *FlightRecorder) snapshot(reason string, extra []telemetry.SpanEvent) (dumpDoc, []telemetry.SpanEvent) {
	f.mu.Lock()
	wins := append([]Window(nil), f.wins...)
	pd, s := f.pd, f.s
	f.mu.Unlock()
	var evs []telemetry.SpanEvent
	doc := dumpDoc{Reason: reason, At: time.Now(), P: f.p, Dropped: f.tr.Dropped()}
	for _, w := range wins {
		evs = append(evs, w.Events...)
		doc.Windows = append(doc.Windows, windowMeta{Seq: w.Seq, Label: w.Label, CutAt: w.CutAt, Events: len(w.Events)})
	}
	evs = append(evs, extra...)
	if tl, err := Merge(evs, f.p, -1); err != nil {
		doc.Error = err.Error()
	} else if len(tl.All) > 0 {
		doc.Report = Analyze(tl, pd, s)
	}
	return doc, evs
}

// Dump writes the retained windows (draining the tracer first) as
// <dir>/flight-<n>-<reason>.json — window metadata plus the latest
// barrier's critical-path report — and a Chrome trace of every retained
// span next to it at .trace.json. It returns the path of the JSON file.
// No-op ("", nil) on a nil recorder.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.Cut(reason)
	f.mu.Lock()
	f.nDumps++
	n := f.nDumps
	f.mu.Unlock()

	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("critpath: flight dir: %w", err)
	}
	base := filepath.Join(f.dir, fmt.Sprintf("flight-%03d-%s", n, sanitize(reason)))

	doc, evs := f.snapshot(reason, nil)

	jf, err := os.Create(base + ".json")
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(jf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		jf.Close()
		return "", fmt.Errorf("critpath: flight dump %s: %w", base, err)
	}
	if err := jf.Close(); err != nil {
		return "", err
	}

	tf, err := os.Create(base + ".trace.json")
	if err != nil {
		return "", err
	}
	if err := telemetry.WriteChromeTraceEvents(tf, evs); err != nil {
		tf.Close()
		return "", fmt.Errorf("critpath: flight trace %s: %w", base, err)
	}
	if err := tf.Close(); err != nil {
		return "", err
	}
	return base + ".json", nil
}

// Handler serves the recorder's current state as JSON — the same document a
// Dump would write, computed on demand without draining the tracer — for
// mounting at /debug/critpath on the telemetry mux.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		// Include spans still in the tracer without consuming them: the
		// handler must not race the flight windows away from a failure
		// path that wants to dump them.
		doc, _ := f.snapshot("debug", f.tr.Events())
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

// sanitize keeps dump filenames shell- and filesystem-friendly.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "dump"
	}
	return b.String()
}
