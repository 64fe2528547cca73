package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"compactrouting"
	"compactrouting/internal/ballpack"
	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/rnet"
	"compactrouting/internal/server"
	"compactrouting/internal/sim"
	"compactrouting/internal/snapshot"
)

// eps is the stretch parameter routed defaults to.
const eps = 0.25

// newEngine runs server.New over compactrouting.GenerateNetwork the way
// routed does, and returns the engine with its wall time (setup_s) and
// the process CPU time spent meanwhile.
func newEngine(w workload) (*server.Engine, time.Duration, time.Duration, error) {
	cpu0 := cpuTime()
	start := time.Now()
	e, err := server.New(server.Config{
		Build: func(seed int64) (*compactrouting.Network, error) {
			return compactrouting.GenerateNetwork(w.kind, w.n, seed, w.backend)
		},
		Seed:         networkSeed,
		Eps:          eps,
		Schemes:      w.schemes,
		CacheEntries: cacheEntries,
	})
	wall := time.Since(start)
	return e, wall, cpuTime() - cpu0, err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupMedian builds the engine count times, each from a collected
// heap, keeps the last one, and returns it with the median set-up wall
// time and the live heap it holds.
func setupMedian(w workload, count int) (*server.Engine, float64, float64, error) {
	var (
		e     *server.Engine
		times []float64
	)
	for i := 0; i < count; i++ {
		e = nil
		runtime.GC()
		var err error
		var wall time.Duration
		if e, wall, _, err = newEngine(w); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, wall.Seconds())
	}
	return e, median(times), liveHeapMB(), nil
}

// liveHeapMB is the heap in use after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// generateGraph is the generator call compactrouting.GenerateNetwork
// makes for the workload's family (same parameters, same seed).
func generateGraph(kind string, n int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "geometric":
		radius := 1.8 * math.Sqrt(math.Log(float64(n))/float64(n))
		g, _, err := graph.RandomGeometric(n, radius, seed)
		return g, err
	case "power-law":
		return graph.PowerLaw(n, 2, 1024, seed)
	}
	return nil, fmt.Errorf("no generator for graph kind %q", kind)
}

// newOracle builds the workload's distance backend for g.
func newOracle(b compactrouting.Backend, g *graph.Graph) metric.Distancer {
	if b == compactrouting.BackendLazy {
		return metric.NewLazyOracle(g)
	}
	return metric.NewAPSP(g)
}

// clamp mirrors the engine's per-scheme eps clamp.
func clamp(e, hi float64) float64 {
	return math.Min(e, hi)
}

// buildScheme constructs one scheme exactly as the engine does
// (internal/server's buildScheme: same constructors, eps clamps and
// naming seed). timed reports each constructor's wall time under its
// layer name; the name-independent constructors are timed apart from
// the underlying labeled scheme they are given.
func buildScheme(name string, g *graph.Graph, a metric.Distancer, timed func(layer string, d time.Duration)) (any, error) {
	n := g.N()
	start := time.Now()
	switch name {
	case "simple-labeled":
		s, err := labeled.NewSimple(g, a, clamp(eps, 0.5))
		timed("labeled.simple_ms", time.Since(start))
		return s, err
	case "scale-free-labeled":
		s, err := labeled.NewScaleFree(g, a, clamp(eps, 0.25))
		timed("labeled.scalefree_ms", time.Since(start))
		return s, err
	case "name-independent":
		ne := clamp(eps, 1.0/3)
		under, err := labeled.NewSimple(g, a, ne)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		s, err := nameind.NewSimple(g, a, nameind.RandomNaming(n, networkSeed+2), under, ne)
		timed("nameind.simple_ms", time.Since(start))
		return s, err
	case "scale-free-name-independent":
		ne := clamp(eps, 0.25)
		under, err := labeled.NewScaleFree(g, a, ne)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		s, err := nameind.NewScaleFree(g, a, nameind.RandomNaming(n, networkSeed+2), under, ne)
		timed("nameind.scalefree_ms", time.Since(start))
		return s, err
	case "full-table":
		s := baseline.NewFullTable(g, a)
		timed("baseline.fulltable_ms", time.Since(start))
		return s, nil
	case "single-tree":
		s, err := baseline.NewSingleTree(g, 0)
		timed("baseline.singletree_ms", time.Since(start))
		return s, err
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// compiled is one scheme's routing surface for the benchmark: its hop
// walk through the scheme's sim.Router adapter and the stretch its
// answers must meet.
type compiled struct {
	name  string
	walk  func(src, dst int) sim.LiteResult
	bound float64 // analytic stretch bound; +Inf when the scheme has none
	exact bool    // full-table: every route is a shortest path
}

// bind wraps impl as the engine's finishScheme does: same adapter,
// same destination addressing, same hop budget.
func bind(name string, impl any, g *graph.Graph) (compiled, error) {
	n := g.N()
	c := compiled{name: name, bound: math.Inf(1)}
	identity := func(v int) int { return v }
	switch s := impl.(type) {
	case *labeled.Simple:
		c.walk, c.bound = walker(g, sim.SimpleLabeledRouter{S: s}, s.LabelOf, 0), s.StretchBound()
	case *labeled.ScaleFree:
		c.walk, c.bound = walker(g, sim.ScaleFreeLabeledRouter{S: s}, s.LabelOf, 64*n), s.StretchBound()
	case *nameind.Simple:
		c.walk, c.bound = walker(g, sim.NameIndependentRouter{S: s}, s.Naming().NameOf, 256*n), s.StretchBound()
	case *nameind.ScaleFree:
		c.walk, c.bound = walker(g, sim.ScaleFreeNameIndependentRouter{S: s}, s.Naming().NameOf, 512*n), s.StretchBound()
	case *baseline.FullTable:
		c.walk, c.exact = walker(g, sim.FullTableRouter{S: s}, identity, 0), true
	case *baseline.SingleTree:
		c.walk = walker(g, sim.SingleTreeRouter{S: s}, identity, 0)
	default:
		return c, fmt.Errorf("scheme %q has unknown implementation %T", name, impl)
	}
	return c, nil
}

func walker[H sim.Header](g *graph.Graph, r sim.Router[H], addr func(int) int, maxHops int) func(src, dst int) sim.LiteResult {
	return func(src, dst int) sim.LiteResult {
		return sim.RouteLite(g, r, src, addr(dst), maxHops)
	}
}

// servedSchemes restores the engine's compiled schemes from its own
// snapshot, in compile order, and keeps their guarantees, so answers
// are checked against the bounds of the tables actually served. The
// restored tables themselves are dropped.
func servedSchemes(e *server.Engine) ([]compiled, error) {
	f, err := e.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot engine: %w", err)
	}
	nw, err := f.Network()
	if err != nil {
		return nil, fmt.Errorf("restore network: %w", err)
	}
	out := make([]compiled, len(f.Schemes))
	for i, b := range f.Schemes {
		impl, err := snapshot.DecodeScheme(bits.NewReader(b.Data, b.Bits), b.Name, nw.Graph(), nw.Distancer())
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", b.Name, err)
		}
		c, err := bind(b.Name, impl, nw.Graph())
		if err != nil {
			return nil, err
		}
		out[i] = compiled{name: c.name, bound: c.bound, exact: c.exact}
	}
	return out, nil
}

// tracedSetup is the traced run's set-up: the generator, the backend
// and every configured constructor called in sequence through the
// counting wrapper, each timed. It returns the schemes (on the bare
// backend, for the serve-side replay), the backend, and the
// per-layer metrics.
func tracedSetup(w workload, m metrics) ([]compiled, metric.Distancer, float64, error) {
	start := time.Now()
	g, err := generateGraph(w.kind, w.n, networkSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	m.ms("graph.gen_ms", time.Since(start))
	t := time.Now()
	oracle := newOracle(w.backend, g)
	m.ms("metric.build_ms", time.Since(t))

	wrapped, counts := countDistancer(oracle)
	for _, layer := range constructorLayers {
		m[layer] = 0 // reported as 0 when the workload does not build it
	}
	timed := func(layer string, d time.Duration) { m.ms(layer, d) }
	impls := make([]any, len(w.schemes))
	for i, name := range w.schemes {
		if impls[i], err = buildScheme(name, g, wrapped, timed); err != nil {
			return nil, nil, 0, fmt.Errorf("build %s: %w", name, err)
		}
	}
	wall := time.Since(start).Seconds()
	m["metric.setup.calls.dist"] = float64(counts.dist.total())
	m["metric.setup.calls.ball"] = float64(counts.ball.total())
	m["metric.setup.calls.nearest"] = float64(counts.nearest.total())
	m["metric.setup.calls.nexthop"] = float64(counts.nexthop.total())
	m["metric.setup.calls.order"] = float64(counts.order.total())
	m["metric.setup.calls.prefetch"] = float64(counts.prefetch.total())
	m["metric.setup.busy_ms"] = float64(counts.busyNS.Load()) / 1e6
	m["metric.cached_entries"] = 0
	if lz, ok := oracle.(*metric.LazyOracle); ok {
		m["metric.cached_entries"] = float64(lz.CachedEntries())
	}

	schemes := make([]compiled, len(impls))
	for i, impl := range impls {
		if schemes[i], err = bind(w.schemes[i], impl, g); err != nil {
			return nil, nil, 0, err
		}
	}

	// The hierarchy and the packing alone, each on its own backend. A
	// dense backend is immutable, so the one built above is as fresh as
	// a new one; a lazy backend starts cold.
	fresh := func() metric.Distancer {
		if w.backend == compactrouting.BackendLazy {
			return newOracle(w.backend, g)
		}
		return oracle
	}
	t = time.Now()
	rnet.NewHierarchy(fresh(), 0)
	m.ms("rnet.hierarchy_ms", time.Since(t))
	m["ballpack.packing_ms"] = 0
	if buildsPacking(w.schemes) {
		t = time.Now()
		ballpack.New(fresh())
		m.ms("ballpack.packing_ms", time.Since(t))
	}
	return schemes, oracle, wall, nil
}

// constructorLayers are the per-constructor set-up metrics.
var constructorLayers = []string{
	"labeled.simple_ms", "labeled.scalefree_ms",
	"nameind.simple_ms", "nameind.scalefree_ms",
	"baseline.fulltable_ms", "baseline.singletree_ms",
}

// buildsPacking reports whether any scheme compiles a ball packing
// (the scale-free constructions do).
func buildsPacking(schemes []string) bool {
	for _, s := range schemes {
		if s == "scale-free-labeled" || s == "scale-free-name-independent" {
			return true
		}
	}
	return false
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[k]
	}
	return (xs[k-1] + xs[k]) / 2
}
