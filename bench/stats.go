package main

import (
	"math"
	"sort"
)

// segments is the number of equal cuts every timed sample series is reduced
// over: a noisy-neighbour burst shorter than half the run can spoil fewer
// than half of the cuts, so it cannot move the median of their medians.
const segments = 10

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// segMedian cuts xs, in the order sampled, into at most `segments` equal
// chunks and returns the median of the chunk medians. Samples that do not
// fill the last equal chunk are dropped; fewer samples than chunks
// degenerates to the plain median.
func segMedian(xs []float64) float64 {
	k := segments
	if len(xs) < k {
		return median(xs)
	}
	size := len(xs) / k
	meds := make([]float64, k)
	for i := range meds {
		meds[i] = median(xs[i*size : (i+1)*size])
	}
	return median(meds)
}

// tailOdds are the tail points a report may quote, as "one sample in k lies
// beyond": p90, p99, p99.9, p99.99.
var tailOdds = []int{10, 100, 1000, 10000}

// tailPercentile picks the highest percentile of an n-sample series that
// still has at least ten samples beyond it (the choosing-metrics rule);
// ok is false when even the lowest candidate is unsupported.
func tailPercentile(n int) (q float64, ok bool) {
	for _, k := range tailOdds {
		if n/k >= 10 {
			q, ok = 1-1/float64(k), true
		}
	}
	return q, ok
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the acceptance driver computes spreads from. Fewer than two values
// yield the value itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cuts, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
