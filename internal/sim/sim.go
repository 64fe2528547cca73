// Package sim runs routing schemes under a concurrent message-passing
// model: every node is a goroutine owning only its local state, packets
// are messages between neighbor mailboxes, and a forwarding decision is
// a pure step function of (node table, packet header).
//
// The sequential traces produced by the schemes' RouteTo* methods
// already make only local decisions, but a central loop drives them;
// this simulator removes the loop. Running the same scheme both ways
// and getting identical paths demonstrates that no hidden shared state
// leaks between hops — the distributed-correctness claim behind every
// compact routing result.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package sim

import (
	"sync"

	"compactrouting/internal/graph"
	"compactrouting/internal/trace"
)

// Header is an opaque packet header with a measurable size.
type Header interface {
	// Bits is called per hop on the serving hot path; implementations
	// must not allocate.
	//
	//determinlint:hotpath
	Bits() int
}

// Router is a routing scheme factored into per-node step functions.
// Prepare and Step sit on RouteLite's zero-allocation serving path, so
// implementations bound to the serving plane must not allocate per
// call (the hotpath lint rule holds RouteLite to that, and the
// server's AllocsPerRun pins hold the implementations to it).
type Router[H Header] interface {
	// Prepare returns the initial header for a delivery addressed by
	// dst (a label or a name, depending on the scheme).
	//
	//determinlint:hotpath
	Prepare(dst int) (H, error)
	// Step performs one local forwarding decision at node: the next
	// hop and updated header, or arrived == true.
	//
	//determinlint:hotpath
	Step(node int, h H) (next int, nh H, arrived bool, err error)
}

// Result is the outcome of one simulated delivery.
type Result struct {
	Src, Dst int
	// Path is the walk taken (Path[0] == Src).
	Path []int
	// Cost is the summed edge weight.
	Cost float64
	// MaxHeaderBits is the largest header en route.
	MaxHeaderBits int
	// Err reports a routing failure (nil on delivery).
	Err error
}

// PhaseOf classifies a header for the trace layer; headers that do not
// implement trace.Phased record as PhaseDirect. The interface
// conversion boxes the header, so callers must only reach this on
// traced paths.
func PhaseOf[H Header](h H) trace.Phase {
	if p, ok := any(h).(trace.Phased); ok {
		return p.TracePhase()
	}
	return trace.PhaseDirect
}

// Delivery is one requested route: from Src to the node addressed by
// Dst (label or name, matching the Router).
type Delivery struct {
	Src, Dst int
}

// RouteOnce drives one delivery through Walk sequentially, recording
// the path. It is the path-carrying per-query route of the serving
// layer (internal/server), while Run is the goroutine-per-node
// distributed check. Both execute the exact same step functions
// through the same hop function, so a route agreed on by the two is a
// pure function of (tables, header).
//
// dst is a label or a name, matching the Router. maxHops <= 0 selects
// the same default as Run.
func RouteOnce[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int) Result {
	return RouteOnceTraced(g, r, src, dst, maxHops, nil)
}

// RouteOnceTraced is RouteOnce with an optional trace: when tr is
// non-nil it is reset (Trace.Begin) and filled with one hop record per
// forward, classified via trace.Phased. A nil tr takes the exact
// RouteOnce path — the Recorder checks the trace for nil before every
// trace instruction, so disabled tracing adds no work and no
// allocations to the walk (pinned by TestRouteOnceTracingDisabledAllocs).
//
// The trace is a pure function of (tables, src, dst): hop distances
// are accumulated in walk order, so trace.Cost() is bit-identical to
// Result.Cost, and re-running the same delivery yields byte-identical
// Marshal output.
func RouteOnceTraced[H Header](g *graph.Graph, r Router[H], src, dst, maxHops int, tr *trace.Trace) Result {
	rec := NewRecorder[H](src, tr)
	lr := Walk[H](g, r, src, dst, maxHops, &rec)
	return rec.Result(lr, lr.Err == nil)
}

// Run executes the deliveries concurrently over the graph: one
// goroutine per node, one message per packet hop. It blocks until all
// packets arrive or fail, and returns results indexed like deliveries.
//
// Packets that exceed maxHops (pass <= 0 for the 8n default) fail
// rather than loop forever.
func Run[H Header](g *graph.Graph, r Router[H], deliveries []Delivery, maxHops int) []Result {
	return RunTraced(g, r, deliveries, maxHops, nil)
}

// packet is an in-flight message: one delivery's walk state and its
// Recorder. Exactly one goroutine holds a packet (and hence its trace)
// at a time, and mailbox sends order the hand-offs, so neither needs a
// lock.
type packet[H Header] struct {
	id  int
	w   walk[H]
	rec Recorder[H]
}

// RunTraced is Run with optional per-delivery traces: traces may be
// nil (no tracing) or len(deliveries) long, with nil entries for
// deliveries that should not be traced. A packet's trace travels with
// the packet, so traced concurrent runs stay race-free and produce the
// same bytes as RouteOnceTraced: every node goroutine advances the
// packets it receives with the same hop function Walk loops over.
func RunTraced[H Header](g *graph.Graph, r Router[H], deliveries []Delivery, maxHops int, traces []*trace.Trace) []Result {
	n := g.N()
	maxHops = hopBudget(g, maxHops)
	results := make([]Result, len(deliveries))
	inbox := make([]chan *packet[H], n)
	for i := range inbox {
		// A few packets of slack per node; forward detaches any send
		// that would block on a full mailbox.
		inbox[i] = make(chan *packet[H], 8)
	}
	var wg sync.WaitGroup // outstanding packets
	var nodeWG sync.WaitGroup
	done := make(chan struct{})

	finish := func(p *packet[H], err error) {
		p.w.res.Err = err
		results[p.id] = p.rec.Result(p.w.res, err == nil)
		wg.Done()
	}

	// forward delivers a packet to a mailbox without blocking the node
	// goroutine (mailboxes are bounded; a detached send avoids deadlock
	// when many packets converge on one node). The detached send must
	// also select on done: a bare `inbox[to] <- p` blocks forever if the
	// run winds down while the mailbox is full, leaking the goroutine.
	forward := func(to int, p *packet[H]) {
		select {
		case inbox[to] <- p:
		default:
			go func() {
				select {
				case inbox[to] <- p:
				case <-done:
				}
			}()
		}
	}

	node := func(self int) {
		defer nodeWG.Done()
		for {
			select {
			case <-done:
				return
			case p := <-inbox[self]:
				if more, err := p.w.hop(g, r, maxHops, &p.rec); more {
					forward(p.w.at, p)
				} else {
					finish(p, err)
				}
			}
		}
	}
	nodeWG.Add(n)
	for v := 0; v < n; v++ {
		go node(v)
	}

	wg.Add(len(deliveries))
	for id, d := range deliveries {
		var tr *trace.Trace
		if traces != nil {
			tr = traces[id]
		}
		p := &packet[H]{id: id, rec: NewRecorder[H](d.Src, tr)}
		var more bool
		var err error
		if p.w, more, err = begin(r, d.Src, d.Dst, &p.rec); more {
			forward(d.Src, p)
		} else {
			finish(p, err)
		}
	}
	wg.Wait()
	close(done)
	nodeWG.Wait()
	return results
}
