package server

import (
	"testing"

	"compactrouting/internal/core"
)

// BenchmarkServerRouteCached measures the hot path when every query is
// a cache hit: one slot lookup plus a struct copy, no step-function
// walk.
func BenchmarkServerRouteCached(b *testing.B) {
	eng := newTestEngine(b, []string{"simple-labeled"}, 1<<14)
	n := eng.Graph().Nodes
	// The cache is direct-mapped: keep pairs whose slots differ, so
	// every warmed pair stays resident.
	var pairs [][2]int
	taken := map[uint64]bool{}
	for _, p := range core.SamplePairs(n, 256, 3) {
		if slot := cacheHash(0, p[0], p[1], 0) & eng.cache.mask; !taken[slot] {
			taken[slot] = true
			pairs = append(pairs, p)
		}
	}
	for _, p := range pairs { // warm the cache
		if _, err := eng.Route("simple-labeled", p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i%len(pairs)]
			i++
			r, err := eng.Route("simple-labeled", p[0], p[1])
			if err != nil {
				b.Fatal(err)
			}
			if !r.Cached {
				b.Fatal("expected cache hit")
			}
		}
	})
}

// BenchmarkServerRouteUncached measures the same queries with caching
// disabled: every query walks the scheme's step function hop by hop.
func BenchmarkServerRouteUncached(b *testing.B) {
	eng := newTestEngine(b, []string{"simple-labeled"}, 0)
	n := eng.Graph().Nodes
	pairs := core.SamplePairs(n, 256, 3)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i%len(pairs)]
			i++
			if _, err := eng.Route("simple-labeled", p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
