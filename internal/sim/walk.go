package sim

import (
	"fmt"

	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
)

// LiteResult is the shape of one walk: where it arrived, how many hops
// it took, its cost and the largest header en route — never the path.
type LiteResult struct {
	Dst           int
	Hops          int
	MaxHeaderBits int
	Cost          float64
	Err           error
}

// Observer watches a walk hop by hop. It can record what it sees (the
// path, a trace) or drop the packet: returning false ends the walk at
// that point with no error, and the observer is the one that knows the
// packet was dropped.
//
// The hotpath annotations let Walk call an observer from its
// allocation-free loop. The zero-allocation serving path (RouteLite)
// passes no observer at all; the recording observers amortize their
// buffers and are only reached from the path-carrying entry points.
type Observer[H Header] interface {
	// Start is called once the header for a delivery from src is
	// prepared, before the first step at src; bits is the prepared
	// header's size.
	//
	//determinlint:hotpath
	Start(src, bits int) bool
	// Hop is called for every validated forward from -> to, with the
	// forwarded header nh, its size and the edge weight w, before the
	// walk takes the hop.
	//
	//determinlint:hotpath
	Hop(from, to int, nh H, bits int, w float64) bool
}

// HopLimitError is the error a delivery fails with when its walk would
// exceed the hop budget: a walk may take at most maxHops hops (the
// arrival step at the final node is free), and the packet fails when a
// further forward would be hop maxHops+1.
func HopLimitError(maxHops int) error {
	return fmt.Errorf("sim: packet exceeded hop budget %d", maxHops)
}

// Walk drives one delivery through the router's step functions: the
// single hop loop behind every entry point in this package and in
// internal/faultsim. It prepares the header for dst (a label or a name,
// matching the Router), then steps from src until arrival, enforcing
// the hop budget (maxHops <= 0 selects 8n), checking that every
// forward goes to a neighbour, and keeping the running maximum of the
// header size. obs may be nil.
//
//determinlint:hotpath
func Walk[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int, obs Observer[H]) LiteResult {
	maxHops = hopBudget(g, maxHops)
	w, more, err := begin(r, src, dst, obs)
	for more {
		more, err = w.hop(g, r, maxHops, obs)
	}
	w.res.Err = err
	return w.res
}

// RouteLite is Walk with no observer: the walk's shape and nothing
// else, with zero heap allocations on delivery. It is the route of the
// binary serving plane (internal/frame responses carry no paths), and
// the framed batch path pins 0 allocs/op on it with
// testing.AllocsPerRun.
//
//determinlint:hotpath
func RouteLite[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int) LiteResult {
	return Walk[H](g, r, src, dst, maxHops, nil)
}

// hopBudget resolves a requested hop budget: maxHops <= 0 selects 8n.
func hopBudget(g *graph.Graph, maxHops int) int {
	if maxHops <= 0 {
		return 8 * g.N()
	}
	return maxHops
}

// walk is one delivery in flight: the node holding the packet, its
// header, and the shape of the walk so far.
type walk[H Header] struct {
	at  int
	h   H
	res LiteResult
}

// begin prepares the header of a delivery from src to dst. more
// reports whether the packet is live at src: false on a Prepare error
// or when obs drops it before the first step.
func begin[H Header](r Router[H], src, dst int, obs Observer[H]) (w walk[H], more bool, err error) {
	w.at = src
	if w.h, err = r.Prepare(dst); err != nil {
		return w, false, err
	}
	w.res.MaxHeaderBits = w.h.Bits()
	return w, obs == nil || obs.Start(src, w.res.MaxHeaderBits), nil
}

// hop is the one forwarding step: the router's decision at w.at, then
// the hop budget, the neighbour check, the observer and the header-bit
// accounting. more reports whether the packet moved on to w.at; when
// it did not, the walk has arrived (w.res.Dst set), failed (err set),
// or been dropped by obs. Run's node goroutines call it directly, one
// hop per mailbox message.
func (w *walk[H]) hop(g *graph.Graph, r Router[H], maxHops int, obs Observer[H]) (more bool, err error) {
	next, nh, arrived, err := r.Step(w.at, w.h)
	if err != nil {
		return false, fmt.Errorf("sim: step at %d: %w", w.at, err)
	}
	if arrived {
		w.res.Dst = w.at
		return false, nil
	}
	if w.res.Hops >= maxHops {
		return false, HopLimitError(maxHops)
	}
	cost, ok := g.NeighborWeight(w.at, next)
	if !ok {
		return false, fmt.Errorf("sim: step at %d forwarded to non-neighbor %d", w.at, next)
	}
	b := nh.Bits()
	if obs != nil && !obs.Hop(w.at, next, nh, b, cost) {
		return false, nil
	}
	if b > w.res.MaxHeaderBits {
		w.res.MaxHeaderBits = b
	}
	w.h = nh
	w.res.Hops++
	w.res.Cost += cost
	w.at = next
	return true, nil
}

// Recorder is the observer of the path-carrying entry points (RouteOnce,
// Run, and internal/faultsim's attempts): it records the path and,
// when it holds a trace, one trace.Hop per forward. The trace is begun
// with an empty header up front, so a delivery whose Prepare fails
// still traces its source.
type Recorder[H Header] struct {
	src  int
	path []int
	tr   *trace.Trace
}

// NewRecorder starts recording a delivery from src; tr may be nil.
func NewRecorder[H Header](src int, tr *trace.Trace) Recorder[H] {
	if tr != nil {
		tr.Begin(int32(src), 0)
	}
	return Recorder[H]{src: src, tr: tr}
}

// Start implements Observer.
func (rc *Recorder[H]) Start(src, bits int) bool {
	rc.path = append(rc.path, src)
	if rc.tr != nil {
		rc.tr.PrepBits = int32(bits)
	}
	return true
}

// Hop implements Observer. The phase is classified per hop (PhaseOf),
// which boxes the header, so only traced walks pay for it.
func (rc *Recorder[H]) Hop(from, to int, nh H, bits int, w float64) bool {
	rc.path = append(rc.path, to)
	if rc.tr != nil {
		rc.tr.Hops = append(rc.tr.Hops, trace.Hop{
			From:       int32(from),
			To:         int32(to),
			Phase:      PhaseOf(nh),
			HeaderBits: int32(bits),
			Dist:       w,
		})
	}
	return true
}

// Result completes the recording with the walk's shape. arrived marks
// a delivered walk, whose destination the trace records.
func (rc *Recorder[H]) Result(lr LiteResult, arrived bool) Result {
	if arrived && rc.tr != nil {
		rc.tr.Dst = int32(lr.Dst)
	}
	return Result{
		Src:           rc.src,
		Dst:           lr.Dst,
		Path:          rc.path,
		Cost:          lr.Cost,
		MaxHeaderBits: lr.MaxHeaderBits,
		Err:           lr.Err,
	}
}
