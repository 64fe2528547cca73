package main

import (
	"sync/atomic"
	"time"

	"compactrouting/internal/metric"
)

// setupCounts are the distance-backend calls the constructors make,
// by query family, plus the summed wall time spent inside them.
// Counters are striped by the query's source node so the parallel
// constructor workers do not contend on one cache line.
type setupCounts struct {
	dist     striped      // Dist
	ball     striped      // Ball, AppendBall, BallOfSize, AppendBallOfSize, BallSize
	nearest  striped      // Nearest
	nexthop  striped      // NextHop
	order    striped      // Kth, RadiusOfSize, Eccentricity
	prefetch striped      // PrefetchBalls
	busyNS   atomic.Int64 // wall time inside the calls, sampled for Dist and NextHop
}

const stripes = 16

type striped [stripes]struct {
	n atomic.Int64
	_ [56]byte // one cache line per stripe
}

// add counts one call keyed by u and returns the stripe's new count.
func (s *striped) add(u int) int64 { return s[uint(u)%stripes].n.Add(1) }

func (s *striped) total() int64 {
	var t int64
	for i := range s {
		t += s[i].n.Load()
	}
	return t
}

// busySample: one in busySample calls of the two high-volume families
// (Dist, NextHop) is timed, and its time is scaled up. Reading the
// clock costs far more than a dense Dist, so timing every call would
// mostly measure the clock.
const busySample = 64

// clockCost is the measured cost of one timed empty region, subtracted
// from every timed call.
var clockCost = func() time.Duration {
	const reps = 1 << 12
	var spent time.Duration
	for i := 0; i < reps; i++ {
		t := time.Now()
		spent += time.Since(t)
	}
	return spent / reps
}()

// countingDistancer forwards every metric.Distancer query to inner and
// counts it. The constructors see the same answers as on the bare
// backend, so the tables they build are byte-identical.
type countingDistancer struct {
	inner metric.Distancer
	c     *setupCounts
}

// countDistancer wraps inner. The wrapper has the optional
// Diameter and metric.Prefetcher methods exactly when inner does:
// metric.DiameterOf and metric.PrefetchBalls probe for them, and a
// wrapper that hid (or invented) one would send the constructors down
// a different path than the bare backend.
func countDistancer(inner metric.Distancer) (metric.Distancer, *setupCounts) {
	d := &countingDistancer{inner: inner, c: &setupCounts{}}
	_, diam := inner.(diameterer)
	_, pre := inner.(metric.Prefetcher)
	switch {
	case diam && pre:
		return withBoth{d}, d.c
	case diam:
		return withDiameter{d}, d.c
	case pre:
		return withPrefetch{d}, d.c
	}
	return d, d.c
}

type diameterer interface{ Diameter() float64 }

type withDiameter struct{ *countingDistancer }

func (d withDiameter) Diameter() float64 { return d.diameter() }

type withPrefetch struct{ *countingDistancer }

func (d withPrefetch) PrefetchBalls(sources []int, r float64) { d.prefetchBalls(sources, r) }

type withBoth struct{ *countingDistancer }

func (d withBoth) Diameter() float64                      { return d.diameter() }
func (d withBoth) PrefetchBalls(sources []int, r float64) { d.prefetchBalls(sources, r) }

// busy charges the call started at t, weighted by the share of its
// family's calls that are timed.
func (d *countingDistancer) busy(t time.Time, weight int64) {
	if spent := time.Since(t) - clockCost; spent > 0 {
		d.c.busyNS.Add(int64(spent) * weight)
	}
}

func (d *countingDistancer) diameter() float64 {
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.(diameterer).Diameter()
}

func (d *countingDistancer) prefetchBalls(sources []int, r float64) {
	d.c.prefetch.add(0)
	t := time.Now()
	defer d.busy(t, 1)
	d.inner.(metric.Prefetcher).PrefetchBalls(sources, r)
}

func (d *countingDistancer) N() int { return d.inner.N() }

func (d *countingDistancer) Dist(u, v int) float64 {
	if d.c.dist.add(u)%busySample != 0 {
		return d.inner.Dist(u, v)
	}
	t := time.Now()
	defer d.busy(t, busySample)
	return d.inner.Dist(u, v)
}

func (d *countingDistancer) NextHop(u, v int) int {
	if d.c.nexthop.add(u)%busySample != 0 {
		return d.inner.NextHop(u, v)
	}
	t := time.Now()
	defer d.busy(t, busySample)
	return d.inner.NextHop(u, v)
}

func (d *countingDistancer) Kth(u, k int) int {
	d.c.order.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.Kth(u, k)
}

func (d *countingDistancer) RadiusOfSize(u, size int) float64 {
	d.c.order.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.RadiusOfSize(u, size)
}

func (d *countingDistancer) BallOfSize(u, size int) []int {
	d.c.ball.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.BallOfSize(u, size)
}

func (d *countingDistancer) AppendBallOfSize(dst []int, u, size int) []int {
	d.c.ball.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.AppendBallOfSize(dst, u, size)
}

func (d *countingDistancer) Ball(u int, r float64) []int {
	d.c.ball.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.Ball(u, r)
}

func (d *countingDistancer) AppendBall(dst []int, u int, r float64) []int {
	d.c.ball.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.AppendBall(dst, u, r)
}

func (d *countingDistancer) BallSize(u int, r float64) int {
	d.c.ball.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.BallSize(u, r)
}

func (d *countingDistancer) Nearest(u int, set []int) (int, float64) {
	d.c.nearest.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.Nearest(u, set)
}

func (d *countingDistancer) Eccentricity(u int) float64 {
	d.c.order.add(u)
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.Eccentricity(u)
}

func (d *countingDistancer) MinPairDistance() float64 {
	t := time.Now()
	defer d.busy(t, 1)
	return d.inner.MinPairDistance()
}
