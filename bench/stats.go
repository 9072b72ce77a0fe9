package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have above
// it, so that a tail figure never rests on a handful of outliers.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// It refuses a percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// tail returns the highest of the conventional tail percentiles that xs
// can support, with the percentile it is. ok is false when even the
// median has fewer than minBeyond samples above it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
