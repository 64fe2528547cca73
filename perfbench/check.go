package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"compactrouting/internal/frame"
	"compactrouting/internal/server"
)

// checker validates every answer the benchmark receives and counts the
// ones that fail: a non-OK status, a refused or broken request, a
// stretch above the scheme's bound or below 1 (full-table: any
// stretch but exactly 1), and a reference answer that differs from
// the wire.
type checker struct {
	schemes   []compiled
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	issues []string // first few failures, for the report; guarded by mu
}

const maxIssues = 8

func newChecker(schemes []compiled) *checker {
	return &checker{schemes: schemes}
}

// fail counts one wrong answer and keeps its description.
func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.note(format, args...)
}

// note keeps a failure's description (the first maxIssues of them).
func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.issues) < maxIssues {
		c.issues = append(c.issues, fmt.Sprintf(format, args...))
	}
}

// failures returns the descriptions of the first failures.
func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.issues...)
}

// refused counts queries that got no answer at all (a transport error
// or an error frame), all as failed.
func (c *checker) refused(queries int, err error) {
	c.attempted.Add(int64(queries))
	c.failed.Add(int64(queries))
	c.note("%d queries refused: %v", queries, err)
}

// belowOptimal is the relative slack a route's cost may fall below
// the optimal distance by: summing a walk's edge weights in another
// order than the shortest-path computation did can differ in the last
// bits, but never by more.
const belowOptimal = 1e-9

// stretchOK reports whether a route of the given cost meets the
// scheme's guarantee against the optimal distance: no cheaper than the
// shortest path, and no dearer than the bound allows.
func (c *checker) stretchOK(scheme int, cost, optimal float64) bool {
	s := c.schemes[scheme]
	if optimal <= 0 || math.IsNaN(cost) {
		return false
	}
	if s.exact {
		return cost == optimal
	}
	return cost >= optimal*(1-belowOptimal) && cost/optimal <= s.bound
}

// frameAnswer checks one framed answer to the query p on scheme.
func (c *checker) frameAnswer(scheme int, p frame.Pair, r frame.RouteResult) {
	c.attempted.Add(1)
	switch {
	case r.Status != frame.StatusOK:
		c.fail("%s %d->%d: status %d", c.schemes[scheme].name, p.Src, p.Dst, r.Status)
	case !c.stretchOK(scheme, r.Cost, r.Optimal):
		c.fail("%s %d->%d: cost %v, optimal %v, bound %v", c.schemes[scheme].name, p.Src, p.Dst, r.Cost, r.Optimal, c.schemes[scheme].bound)
	}
}

// httpAnswer checks one POST /route answer, including its path.
func (c *checker) httpAnswer(scheme int, p frame.Pair, code int, r server.RouteResult) {
	c.attempted.Add(1)
	name := c.schemes[scheme].name
	switch {
	case code != 200:
		c.fail("%s %d->%d: HTTP %d", name, p.Src, p.Dst, code)
	case r.Scheme != name || r.Src != int(p.Src) || r.Dst != int(p.Dst):
		c.fail("%s %d->%d: answer is for %s %d->%d", name, p.Src, p.Dst, r.Scheme, r.Src, r.Dst)
	case len(r.Path) != r.Hops+1 || r.Path[0] != r.Src || r.Path[r.Hops] != r.Dst:
		c.fail("%s %d->%d: path of %d nodes for %d hops", name, p.Src, p.Dst, len(r.Path), r.Hops)
	case !c.stretchOK(scheme, r.Cost, r.Optimal):
		c.fail("%s %d->%d: cost %v, optimal %v, bound %v", name, p.Src, p.Dst, r.Cost, r.Optimal, c.schemes[scheme].bound)
	}
}

// reference checks an in-process Engine.Route answer against the wire
// answer to the same query: hops, cost and optimal must be identical
// to the bit. The query was attempted once already, over the wire.
func (c *checker) reference(scheme int, p frame.Pair, wire frame.RouteResult, local server.RouteResult, err error) {
	name := c.schemes[scheme].name
	switch {
	case err != nil:
		c.fail("reference %s %d->%d: %v", name, p.Src, p.Dst, err)
	case int32(local.Hops) != wire.Hops ||
		math.Float64bits(local.Cost) != math.Float64bits(wire.Cost) ||
		math.Float64bits(local.Optimal) != math.Float64bits(wire.Optimal):
		c.fail("reference %s %d->%d: in-process (%d hops, %v, %v) != wire (%d hops, %v, %v)",
			name, p.Src, p.Dst, local.Hops, local.Cost, local.Optimal, wire.Hops, wire.Cost, wire.Optimal)
	}
}
