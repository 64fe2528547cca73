package server

import (
	"testing"

	"compactrouting"
	"compactrouting/internal/core"
	"compactrouting/internal/frame"
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

// BenchmarkWalk measures one uncached RouteLite per iteration, per
// scheme, over geo-cold's network (geometric, n=1024, seed 1, dense):
// every query walks the scheme's step function hop by hop over tables
// far larger than a core's cache, so the per-hop table reads show.
// BenchmarkServerRouteUncached's tiny engine fits in cache and cannot.
// The pair sample is fixed, so ns/op compares across trees.
func BenchmarkWalk(b *testing.B) {
	eng, err := New(Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork("geometric", 1024, seed, compactrouting.BackendDense)
		},
		Seed: 1,
		Eps:  0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	pairs := core.SamplePairs(eng.Graph().Nodes, 4096, 3)
	for idx, name := range SchemeNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if r := eng.RouteLite(idx, p[0], p[1]); r.Status != frame.StatusOK {
					b.Fatalf("%s %d->%d: status %v", name, p[0], p[1], r.Status)
				}
			}
		})
	}
}
