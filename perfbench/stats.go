package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of measurements in one unit, kept raw so percentiles
// are exact and the sample count travels with them.
type sample []float64

// quantile is the nearest-rank q-quantile (0 for an empty sample).
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeEach runs fn at least minReps times and until budget has elapsed,
// and returns the mean wall time of one call. It is how the benchmark
// times a layer entry point directly.
func timeEach(budget time.Duration, minReps int, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < minReps || time.Since(start) < budget {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}
