package server

import (
	"time"

	"compactrouting/internal/frame"
)

// RouteLite answers one binary-plane query: scheme addressed by compile
// order index, result as a wire shape (no path). It shares Engine.answer
// — and so the one route cache — with the HTTP plane, asking only for
// the shape: any slot holding the key is a hit, and a miss walks
// without recording the path. The happy path — slot hit or
// sim.RouteLite miss — performs zero heap allocations;
// TestFramedRoutePathAllocs pins the full decode→route→encode cycle at
// 0 allocs/op for both outcomes. Latency and route-shape observations
// land in the same metrics block the HTTP handlers feed, so /metrics
// aggregates both protocols.
//
// Fault injection and trace sampling apply here exactly as on the HTTP
// plane (they allocate, and are off in the pinned configuration), so
// chaos draws and sampled traces stay globally consistent across
// protocols.
//
//determinlint:hotpath
func (e *Engine) RouteLite(schemeIdx, src, dst int) frame.RouteResult {
	st := e.st.Load()
	if schemeIdx < 0 || schemeIdx >= len(st.list) {
		e.met.routeErrors.Add(1)
		return frame.RouteResult{Status: frame.StatusBadScheme}
	}
	n := st.nw.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		e.met.routeErrors.Add(1)
		return frame.RouteResult{Status: frame.StatusBadPair}
	}
	start := time.Now()
	a, err := e.answer(st, schemeIdx, src, dst, false, false)
	if err != nil {
		e.met.routeErrors.Add(1)
		return frame.RouteResult{Status: frame.StatusRouteFailed}
	}
	elapsed := time.Since(start)
	e.met.routeLatency.Observe(elapsed)
	if a.cached {
		e.met.routeLatencyHit.Observe(elapsed)
	} else {
		e.met.routeLatencyMiss.Observe(elapsed)
	}
	return frame.RouteResult{
		Status:        frame.StatusOK,
		Cached:        a.cached,
		Hops:          a.hops,
		MaxHeaderBits: a.maxHeaderBits,
		Cost:          a.cost,
		Optimal:       a.optimal,
	}
}

// SchemesWire describes the engine for a TypeSchemesResponse frame.
func (e *Engine) SchemesWire() frame.SchemesResponse {
	st := e.st.Load()
	return frame.SchemesResponse{
		N:          st.nw.N(),
		Generation: st.gen,
		Names:      append([]string(nil), st.order...),
	}
}
