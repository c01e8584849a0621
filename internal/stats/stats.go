// Package stats provides the small statistical toolkit the profiling
// benchmarks depend on: ordinary least-squares linear regression (the paper
// fits round-trip times over message sizes and batch sizes, §IV.A), summary
// statistics, and a deterministic SplitMix64 random number generator used to
// make every simulated measurement reproducible.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Fit is the result of an ordinary least-squares fit y ≈ Intercept + Slope·x.
type Fit struct {
	Intercept float64
	Slope     float64
	// R2 is the coefficient of determination; 1 means a perfect fit. It is 0
	// when the dependent variable has no variance.
	R2 float64
}

// LeastSquares fits a line through the sample points by ordinary least
// squares. It panics if the slices differ in length, and returns an error if
// fewer than two distinct x values are present (the slope is then undefined).
func LeastSquares(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: LeastSquares length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, have %d", len(xs))
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: all %d x values identical", len(xs))
	}
	slope := sxy / sxx
	f := Fit{Intercept: my - slope*mx, Slope: slope}
	if syy > 0 {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median, or 0 for an empty slice. The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RNG is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; distinct seeds yield independent-looking streams.
// It is deliberately tiny and allocation-free: every noisy quantity in the
// simulated fabric draws from one of these — one stream per fabric, consumed
// in simulation event order — so whole experiments replay bit-identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("stats: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// NormFactors returns the two Box-Muller factors of the next normal draw,
// s = √(−2 ln u₁) and c = cos 2πu₂: σ·s·c is normally distributed with mean
// 0 and standard deviation σ, and exp(σ·s·c) is the log-normal noise factor
// (median 1) the simulated fabric applies to every cost sample. It is the
// one definition of the transform, so a consumer that computes factors ahead
// of the draws that use them (the fabric does, a batch at a time) consumes
// the stream exactly as one drawing them in place.
func (r *RNG) NormFactors() (s, c float64) {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2 * math.Log(u1)), math.Cos(2 * math.Pi * u2)
}
