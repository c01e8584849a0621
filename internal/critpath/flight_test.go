package critpath

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"topobarrier/internal/profile"
	"topobarrier/internal/telemetry"
)

// replay records a synthetic event list into a live tracer by rebuilding
// each span relative to the tracer's epoch. Begin/End stamp wall-clock
// times, so instead we drain through the same SpanEvent shape the tracer
// stores: the recorder only ever sees events via Take, making this faithful.
func replay(tr *telemetry.Tracer, evs []telemetry.SpanEvent) {
	for _, e := range evs {
		// The tracer has no injection API by design; spans come from real
		// Begin/End pairs. Zero-duration live spans carry the name and
		// attributes; the timing fields of this test's assertions all come
		// from Merge over explicitly built slices instead.
		tr.BeginTag(e.Name, e.Rank, e.Stage, e.Peer, e.Tag).End()
	}
}

// TestFlightRecorderRing pins the bounded window ring: cuts beyond the limit
// evict oldest-first and sequence numbers keep counting.
func TestFlightRecorderRing(t *testing.T) {
	tr := telemetry.NewTracer()
	f := NewFlightRecorder(tr, 2, 2, t.TempDir())
	for i := 0; i < 3; i++ {
		replay(tr, []telemetry.SpanEvent{sendEv(0, 1, 0, i, 0, us)})
		if n := f.Cut("w"); n != 1 {
			t.Fatalf("cut %d returned %d events", i, n)
		}
	}
	wins := f.wins
	if len(wins) != 2 {
		t.Fatalf("ring holds %d windows, want 2", len(wins))
	}
	if wins[0].Seq != 2 || wins[1].Seq != 3 {
		t.Errorf("window seqs %d,%d, want 2,3 (oldest evicted)", wins[0].Seq, wins[1].Seq)
	}
	// An empty tracer cut leaves the ring untouched.
	if n := f.Cut("empty"); n != 0 {
		t.Errorf("empty cut returned %d", n)
	}
	if len(f.wins) != 2 {
		t.Error("empty cut grew the ring")
	}
}

// TestFlightRecorderNil pins the nil no-op contract end to end.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	if f.Cut("x") != 0 {
		t.Error("nil recorder recorded something")
	}
	if links := f.ImplicatedFresh(nil, 0, "x"); links != nil {
		t.Error("nil recorder implicated fresh links")
	}
	path, err := f.Dump("x")
	if path != "" || err != nil {
		t.Errorf("nil dump = (%q, %v)", path, err)
	}
	f.SetModel(nil, nil)
}

// TestFlightDumpWritesValidFiles pins the dump format: the JSON doc carries
// the window metadata and a report, and the sibling Chrome trace parses as a
// loadable trace document.
func TestFlightDumpWritesValidFiles(t *testing.T) {
	dir := t.TempDir()
	tr := telemetry.NewTracer()
	f := NewFlightRecorder(tr, 2, 4, dir)
	replay(tr, []telemetry.SpanEvent{
		sendEv(0, 1, 0, 7, 0, us),
		recvEv(0, 1, 0, 7, 0, us),
		stageEv(0, 0, 0, us),
	})
	path, err := f.Dump("latched: rank 1 (src 0)")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || strings.ContainsAny(filepath.Base(path), ": ()") {
		t.Errorf("dump path %q not sanitized into %q", path, dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason  string `json:"reason"`
		P       int    `json:"p"`
		Windows []struct {
			Label  string `json:"label"`
			Events int    `json:"events"`
		} `json:"windows"`
		Report *Report `json:"report"`
		Error  string  `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump JSON does not parse: %v", err)
	}
	if doc.Reason != "latched: rank 1 (src 0)" || doc.P != 2 {
		t.Errorf("doc header %+v", doc)
	}
	if len(doc.Windows) != 1 || doc.Windows[0].Events != 3 {
		t.Errorf("window metadata %+v", doc.Windows)
	}
	if doc.Report == nil || doc.Error != "" {
		t.Errorf("report missing or error present: %+v / %q", doc.Report, doc.Error)
	}
	tracePath := strings.TrimSuffix(path, ".json") + ".trace.json"
	traw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traw, &tdoc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(tdoc.TraceEvents) != 3 {
		t.Errorf("chrome trace has %d events, want 3", len(tdoc.TraceEvents))
	}
	// A second dump gets a fresh sequence number.
	path2, err := f.Dump("again")
	if err != nil {
		t.Fatal(err)
	}
	if path2 == path {
		t.Errorf("second dump reused path %q", path)
	}
}

// TestFlightDumpIdleStage pins that a window without stage spans still
// dumps: the walk crosses a stage in which its rank sent and received
// nothing, and that hop must carry finite times for the report to encode.
func TestFlightDumpIdleStage(t *testing.T) {
	tr := telemetry.NewTracer()
	f := NewFlightRecorder(tr, 4, 4, t.TempDir())
	replay(tr, []telemetry.SpanEvent{
		sendEv(2, 3, 0, 0, 0, 0), recvEv(2, 3, 0, 0, 0, 0),
		sendEv(0, 1, 1, 1, 0, 0), recvEv(0, 1, 1, 1, 0, 0),
	})
	path, err := f.Dump("idle")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Report *Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Report == nil {
		t.Fatalf("dump carries no report: %v\n%s", err, raw)
	}
	if hops := doc.Report.Realized; len(hops) != 2 || hops[0].From != 0 || hops[0].To != 0 {
		t.Errorf("realized path %v, want rank 0 idle in stage 0, then 0→1", hops)
	}
}

// TestFlightHandlerServesState pins the /debug/critpath payload: retained
// windows plus whatever is still in the tracer, without draining it.
func TestFlightHandlerServesState(t *testing.T) {
	tr := telemetry.NewTracer()
	f := NewFlightRecorder(tr, 2, 4, t.TempDir())
	replay(tr, []telemetry.SpanEvent{sendEv(0, 1, 0, 7, 0, us)})
	f.Cut("w1")
	replay(tr, []telemetry.SpanEvent{recvEv(0, 1, 0, 7, 0, us)})

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/critpath", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Windows []struct {
			Events int `json:"events"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}
	if len(doc.Windows) != 1 {
		t.Errorf("handler shows %d windows, want 1", len(doc.Windows))
	}
	// The un-cut tracer span must still be there for a later dump.
	if len(tr.Events()) != 1 {
		t.Error("handler drained the tracer")
	}

	// A nil recorder behind the handler 404s instead of panicking.
	var nilRec *FlightRecorder
	rec = httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/critpath", nil))
	if rec.Code != 404 {
		t.Errorf("nil recorder handler returned %d, want 404", rec.Code)
	}
}

// TestImplicatedFreshUsesOnlyLastWindow pins the windowing rule that makes
// aimed re-probes work: a healthy-era floor retained in the ring must not
// mask drift that only shows in the freshest window.
func TestImplicatedFreshUsesOnlyLastWindow(t *testing.T) {
	pf := uniformProfile(2, 2e-6, 8e-6) // expected 10µs
	tr := telemetry.NewTracer()
	f := NewFlightRecorder(tr, 2, 8, t.TempDir())

	// Healthy window: live spans have ~0 duration, so the observed floor is
	// far below the 10µs model — score 0.
	replay(tr, []telemetry.SpanEvent{sendEv(0, 1, 0, 0, 0, 0), recvEv(0, 1, 0, 0, 0, 0)})
	f.Cut("check")

	// Drifted window: a real slow exchange, built by replaying with actual
	// sleeps so the recorded spans carry genuine duration.
	s := tr.BeginTag("barrier.send:tcp", 0, 0, 1, 1)
	s.End()
	r := tr.BeginTag("barrier.recv:tcp", 1, 0, 0, 1)
	time.Sleep(2 * time.Millisecond) // recv blocks 2ms → arrival ≫ send start
	r.End()

	links := f.ImplicatedFresh(pf, 1.0, "drift")
	if len(links) != 1 || links[0] != (profile.Link{From: 0, To: 1}) {
		t.Fatalf("fresh window implicated %v, want exactly 0→1", links)
	}
	// Nothing fresh since the last call → nil, caller falls back.
	if again := f.ImplicatedFresh(pf, 1.0, "drift"); again != nil {
		t.Errorf("second fresh call returned %v, want nil", again)
	}
}
