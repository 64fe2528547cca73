package main

import (
	"math"
	"sort"
	"time"

	"compactrouting/internal/server"
)

// metrics maps a metric name to its value.
type metrics map[string]float64

// ms records d in milliseconds.
func (m metrics) ms(name string, d time.Duration) { m[name] = float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// histDelta is the per-bucket difference b - a of two snapshots of one
// engine histogram (b taken later).
func histDelta(a, b server.HistogramSnapshot) []server.HistogramBucket {
	before := make(map[int64]uint64, len(a.Buckets))
	for _, bk := range a.Buckets {
		before[bk.LEus] = bk.Count
	}
	var out []server.HistogramBucket
	for _, bk := range b.Buckets {
		if c := bk.Count - before[bk.LEus]; c > 0 {
			out = append(out, server.HistogramBucket{LEus: bk.LEus, Count: c})
		}
	}
	return out
}

// histQuantile estimates the q-quantile in µs of a bucketed latency
// distribution. The target rank is q·(N+1) and is placed linearly
// within its bucket, which spans from the previous non-empty bucket's
// bound (0 for the first) to its own. The unbounded last bucket
// reports its lower bound. 0 for no samples.
func histQuantile(buckets []server.HistogramBucket, q float64) float64 {
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := math.Min(q*float64(total+1), float64(total))
	var cum uint64
	lower := 0.0
	for _, b := range buckets {
		if float64(cum+b.Count) >= rank {
			if b.LEus < 0 {
				return lower
			}
			return lower + (rank-float64(cum))/float64(b.Count)*(float64(b.LEus)-lower)
		}
		cum += b.Count
		lower = float64(b.LEus)
	}
	return lower
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
