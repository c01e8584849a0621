package telemetry

import (
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("frames_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("frames_total") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := reg.Gauge("best_cost")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	// None of these may panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported non-zero values")
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *Tracer
	sp := tr.Begin("noop", 0, 0, 0)
	sp.End()
	tr.Reset()
	if tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.5, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5056) > 1e-9 {
		t.Fatalf("sum = %g, want 5056", h.Sum())
	}
	// Cumulative buckets as exposed: two at ≤ 1, the 5 at ≤ 10, the 50 at
	// ≤ 100, and the 5000 only in the overflow bucket.
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_bucket{le="1"} 2`, `lat_bucket{le="10"} 3`, `lat_bucket{le="100"} 4`, `lat_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Fatalf("exposition lacks %q:\n%s", want, out.String())
		}
	}
}

// TestHistogramWindowMedian: the difference of two bucket snapshots is the
// window between them, and its median interpolates inside the bucket it
// falls in, whatever the observations before the window or one outlier in
// it.
func TestHistogramWindowMedian(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(7) // history: far above the window's median
	}
	before := h.Buckets(nil)
	for _, v := range []float64{1.5, 1.5, 1.5, 3, 1000} {
		h.Observe(v)
	}
	window := h.Buckets(nil)
	for i := range window {
		window[i] -= before[i]
	}
	if want := []int64{0, 3, 1, 0, 1}; !slices.Equal(window, want) {
		t.Fatalf("window buckets = %v, want %v", window, want)
	}
	// Rank 2.5 of 5 falls in (1, 2], which holds ranks 1..3: 1 + 1·2.5/3.
	if got, want := h.BucketQuantile(0.5, window), 1+2.5/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("window median = %g, want %g", got, want)
	}
	if got := h.BucketQuantile(1, window); got != 8 {
		t.Errorf("window maximum = %g, want the largest bound 8 for the overflow bucket", got)
	}
	if got := h.BucketQuantile(0.5, make([]int64, len(window))); got != 0 {
		t.Errorf("empty window median = %g, want 0", got)
	}
	var nilH *Histogram
	if nilH.Buckets(nil) != nil || nilH.BucketQuantile(0.5, window) != 0 {
		t.Error("nil histogram reported buckets")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Label("frames_total", "peer", "3")).Add(7)
	reg.Gauge("cost_seconds").Set(1.5)
	h := reg.Histogram("wait_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{peer="3"} 7`,
		"# TYPE cost_seconds gauge",
		"cost_seconds 1.5",
		"# TYPE wait_seconds histogram",
		`wait_seconds_bucket{le="0.1"} 1`,
		`wait_seconds_bucket{le="1"} 1`,
		`wait_seconds_bucket{le="+Inf"} 2`,
		"wait_seconds_sum 5.05",
		"wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x"); got != "x" {
		t.Fatalf("Label no pairs = %q", got)
	}
	if got := Label("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("Label = %q", got)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total").Add(3)
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "served_total 3") {
		t.Fatalf("/metrics output:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "telemetry") || !strings.Contains(out, "served_total") {
		t.Fatalf("/debug/vars output:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("/debug/pprof/ output:\n%s", out)
	}
}
