package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before the
// benchmark reports it: a p90 needs at least 100 samples, a p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and how
// many samples lie strictly beyond its rank. xs is sorted in place.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return xs[i], len(xs) - 1 - i
}

// tail returns the q-quantile of xs only when at least minBeyond samples lie
// beyond it; ok is false otherwise (the sample cannot support that tail).
func tail(xs []float64, q float64) (v float64, ok bool) {
	v, beyond := percentile(xs, q)
	return v, beyond >= minBeyond
}

// median is the nearest-rank median (NaN for an empty sample).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
