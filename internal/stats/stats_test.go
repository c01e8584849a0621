package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	f, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Intercept-3) > 1e-12 || math.Abs(f.Slope-2) > 1e-12 {
		t.Fatalf("fit = %+v, want intercept 3 slope 2", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := NewRNG(7)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 10+0.5*x+rng.Norm(0.1))
	}
	f, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Intercept-10) > 0.1 || math.Abs(f.Slope-0.5) > 0.01 {
		t.Fatalf("noisy fit too far off: %+v", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v, want near 1", f.R2)
	}
}

func TestLeastSquaresDegenerate(t *testing.T) {
	if _, err := LeastSquares([]float64{1}, []float64{2}); err == nil {
		t.Fatalf("single point did not error")
	}
	if _, err := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatalf("constant x did not error")
	}
	// Constant y is fine: slope 0, R2 0.
	f, err := LeastSquares([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || f.Intercept != 5 {
		t.Fatalf("constant-y fit = %+v", f)
	}
}

func TestLeastSquaresLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("length mismatch did not panic")
		}
	}()
	LeastSquares([]float64{1, 2}, []float64{1})
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Fatalf("Median = %v", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatalf("odd Median wrong")
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Fatalf("Min/Max wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatalf("empty-input conventions violated")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatalf("empty Min/Max conventions violated")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := make([]bool, 5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm(2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Fatalf("Norm sd = %v, want ~2", sd)
	}
}

func TestLogNormMedian(t *testing.T) {
	r := NewRNG(4)
	var vs []float64
	for i := 0; i < 20001; i++ {
		vs = append(vs, r.LogNorm(0.5))
	}
	if m := Median(vs); math.Abs(m-1) > 0.05 {
		t.Fatalf("LogNorm median = %v, want ~1", m)
	}
	for _, v := range vs[:100] {
		if v <= 0 {
			t.Fatalf("LogNorm produced non-positive %v", v)
		}
	}
}

// Property: fitting y = a + b·x recovers a and b for arbitrary finite a, b.
func TestQuickLeastSquaresRecovers(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		xs := []float64{0, 1, 2, 3, 7, 11}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		fit, err := LeastSquares(xs, ys)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(fit.Intercept-a) < 1e-6*scale && math.Abs(fit.Slope-b) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLeastSquares(b *testing.B) {
	xs := make([]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2 + 3*float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(1)
	}
}
