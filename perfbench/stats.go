package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must leave
// beyond it.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a fraction q of the samples at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// beyond returns how many of n samples lie beyond the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailPercentile returns the nearest-rank q-quantile of sorted, or an
// error when fewer than minTail samples lie beyond it, so a reported tail
// always rests on at least that many slower samples.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	if b := beyond(len(sorted), q); b < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d",
			100*q, len(sorted), b, minTail)
	}
	return percentile(sorted, q), nil
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the benchmark's
// acceptance rule. xs is sorted in place; it needs at least two values.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	n := len(xs)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	sort.Float64s(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		// j is clamped into [1, n-1] before delta is taken, exactly as
		// Python does at the exclusive method's edge positions.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q, nil
}

// spread returns the interquartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
