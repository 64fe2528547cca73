package server

import (
	"sync"
	"sync/atomic"
)

// route is one served route as the cache holds it: the walk's shape,
// the optimal distance, and the path when a path-recording walk
// produced it (nil after a shape-only walk). Path is shared between
// every response that reads it and must not be mutated.
type route struct {
	hops, maxHeaderBits int32
	cost, optimal       float64
	path                []int
}

// routeCache is the engine's one route cache, read and written by both
// serving planes: a flat, direct-mapped array of value slots. The hash
// of (scheme index, src, dst, generation) selects a slot; the slot
// stores the full key and compares it explicitly, so colliding queries
// simply overwrite each other (direct-mapped eviction). The generation
// is the engine state's: reload advances it, which makes every old
// entry unreachable without a purge, and a slow query that finishes
// against the old state can never poison the new one.
//
// Every operation — hit, miss, overwrite — touches only preallocated
// slots, which is what lets the framed batch route path pin 0
// allocs/op. A nil *routeCache is a disabled cache: every get misses
// without counting, and put stores nothing.
type routeCache struct {
	slots   []cacheSlot
	mask    uint64
	hits    atomic.Uint64 // guarded by atomic
	misses  atomic.Uint64 // guarded by atomic
	evicted atomic.Uint64 // guarded by atomic
	size    atomic.Int64  // guarded by atomic; occupied slots
}

type cacheSlot struct {
	mu     sync.Mutex
	full   bool   // guarded by mu
	scheme int32  // guarded by mu
	src    int32  // guarded by mu
	dst    int32  // guarded by mu
	gen    uint64 // guarded by mu
	val    route  // guarded by mu
}

// newRouteCache sizes the slot array to the largest power of two not
// exceeding entries; entries <= 0 disables the cache (nil).
func newRouteCache(entries int) *routeCache {
	if entries <= 0 {
		return nil
	}
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	return &routeCache{slots: make([]cacheSlot, n), mask: uint64(n - 1)}
}

// cacheHash mixes the key fields (FNV-1a).
func cacheHash(scheme, src, dst int, gen uint64) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(scheme)) * 1099511628211
	h = (h ^ uint64(src)) * 1099511628211
	h = (h ^ uint64(dst)) * 1099511628211
	h = (h ^ gen) * 1099511628211
	return h
}

// holdsLocked reports whether the slot holds the key. The caller holds
// s.mu.
func (s *cacheSlot) holdsLocked(scheme, src, dst int, gen uint64) bool {
	return s.full && s.scheme == int32(scheme) && s.src == int32(src) && s.dst == int32(dst) && s.gen == gen
}

// get returns the cached route for the key at generation gen. A query
// that needs the path misses on a slot holding only the shape: its
// walk records the path and refills the slot. The counter updates ride
// inside the critical section: they are atomics, and the deferred
// unlock keeps the lock/unlock pairing syntactically checkable
// (lockorder) on this hot function.
//
//determinlint:hotpath
func (c *routeCache) get(scheme, src, dst int, gen uint64, needPath bool) (route, bool) {
	if c == nil {
		return route{}, false
	}
	s := &c.slots[cacheHash(scheme, src, dst, gen)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.holdsLocked(scheme, src, dst, gen) || needPath && s.val.path == nil {
		c.misses.Add(1)
		return route{}, false
	}
	c.hits.Add(1)
	return s.val, true
}

// put stores a route, overwriting whatever key occupied the slot. A
// shape-only route never replaces the same key's path-holding entry.
//
//determinlint:hotpath
func (c *routeCache) put(scheme, src, dst int, gen uint64, v route) {
	if c == nil {
		return
	}
	s := &c.slots[cacheHash(scheme, src, dst, gen)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	same := s.holdsLocked(scheme, src, dst, gen)
	if same && v.path == nil {
		return
	}
	if !s.full {
		c.size.Add(1)
	} else if !same {
		c.evicted.Add(1)
	}
	s.full = true
	s.scheme, s.src, s.dst = int32(scheme), int32(src), int32(dst)
	s.gen = gen
	s.val = v
}

// stats reports the cumulative counters and the occupied slots (stale
// generations included); zeros when the cache is disabled.
func (c *routeCache) stats() (hits, misses, evicted uint64, size int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evicted.Load(), int(c.size.Load())
}
