package server

import (
	"math"
	"testing"

	"compactrouting"
)

// TestCrossPlaneEquivalence is the referee for the one walk and the one
// cache: for every scheme, on both distance backends, every ordered
// pair answered by the frame plane (RouteLite) must equal the HTTP
// plane's answer (Route) bit for bit — hops, cost, max header bits,
// optimal — and the HTTP path must have Hops+1 nodes. It runs three
// ways: with caching off (both planes walk), with the frame plane
// filling each slot first (a shape-only slot that the HTTP query
// upgrades by walking with the path recorder), and with HTTP filling it
// first (the frame plane then hits a path-holding slot).
func TestCrossPlaneEquivalence(t *testing.T) {
	type order int
	const (
		cold order = iota
		frameFirst
		httpFirst
	)
	for _, backend := range []compactrouting.Backend{compactrouting.BackendDense, compactrouting.BackendLazy} {
		for _, o := range []order{cold, frameFirst, httpFirst} {
			entries := 1 << 16
			if o == cold {
				entries = 0
			}
			eng, err := New(Config{
				Build: func(seed int64) (*compactrouting.Network, error) {
					return compactrouting.GenerateNetwork("grid", 25, seed, backend)
				},
				Seed:         3,
				Eps:          0.25,
				CacheEntries: entries,
			})
			if err != nil {
				t.Fatal(err)
			}
			n := eng.Graph().Nodes
			for idx, name := range SchemeNames {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						var hr RouteResult
						var err error
						if o == httpFirst {
							hr, err = eng.Route(name, src, dst)
						}
						fr := eng.RouteLite(idx, src, dst)
						if o != httpFirst {
							hr, err = eng.Route(name, src, dst)
						}
						if err != nil {
							t.Fatalf("%s/%d %s %d->%d: %v", backend, o, name, src, dst, err)
						}
						if int(fr.Hops) != hr.Hops || math.Float64bits(fr.Cost) != math.Float64bits(hr.Cost) ||
							int(fr.MaxHeaderBits) != hr.MaxHeaderBits ||
							math.Float64bits(fr.Optimal) != math.Float64bits(hr.Optimal) {
							t.Fatalf("%s/%d %s %d->%d: frame %+v, http %+v", backend, o, name, src, dst, fr, hr)
						}
						if len(hr.Path) != hr.Hops+1 {
							t.Fatalf("%s/%d %s %d->%d: path %v for %d hops", backend, o, name, src, dst, hr.Path, hr.Hops)
						}
						// Each key is visited once: the first plane to ask
						// walks, the second hits only if the slot holds
						// what it needs.
						if hr.Cached || fr.Cached != (o == httpFirst) {
							t.Fatalf("%s/%d %s %d->%d: cached frame=%v http=%v", backend, o, name, src, dst, fr.Cached, hr.Cached)
						}
						if o == frameFirst {
							// The HTTP walk upgraded the slot: it now
							// serves the path without walking.
							again, err := eng.Route(name, src, dst)
							if err != nil || !again.Cached || len(again.Path) != len(hr.Path) {
								t.Fatalf("%s %d->%d: upgraded slot served %+v, %v", name, src, dst, again, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestHitRateCountsFramePlane pins CacheSnapshot.HitRate over the one
// cache: frame-plane traffic alone produces hits, and HitRate reports
// them as Hits/(Hits+Misses).
func TestHitRateCountsFramePlane(t *testing.T) {
	eng := tcpTestEngine(t, 1<<10, "full-table")
	for round := 0; round < 2; round++ {
		for src := 0; src < 5; src++ {
			if res := eng.RouteLite(0, src, 24-src); res.Cached != (round == 1) {
				t.Fatalf("round %d pair %d: cached=%v", round, src, res.Cached)
			}
		}
	}
	c := eng.Metrics().Cache
	if c.Hits != 5 || c.Misses != 5 || c.HitRate != 0.5 {
		t.Fatalf("cache hits=%d misses=%d hit_rate=%v, want 5/5/0.5", c.Hits, c.Misses, c.HitRate)
	}
}
