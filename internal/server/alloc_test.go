package server

import (
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
)

// framedCycle is the serving plane's hot path exactly as handleConn
// runs it: decode a route-request payload into reused state, answer
// every pair through RouteLite, encode the response, and frame it into
// a reused output buffer.
type framedCycle struct {
	rd      bits.Reader
	w       bits.Writer
	req     frame.RouteRequest
	resp    frame.RouteResponse
	out     []byte
	payload []byte
}

func newFramedCycle(t testing.TB, pairs []frame.Pair) *framedCycle {
	t.Helper()
	fc := &framedCycle{}
	var w bits.Writer
	(&frame.RouteRequest{Scheme: 0, Pairs: pairs}).Encode(&w)
	fc.payload = append([]byte(nil), w.Bytes()...)
	return fc
}

func (fc *framedCycle) run(t testing.TB, eng *Engine) {
	if err := fc.req.DecodeInto(fc.payload, &fc.rd); err != nil {
		t.Fatal(err)
	}
	fc.resp.Results = fc.resp.Results[:0]
	for _, p := range fc.req.Pairs {
		res := eng.RouteLite(fc.req.Scheme, int(p.Src), int(p.Dst))
		if res.Status != frame.StatusOK {
			t.Fatalf("pair %+v: %+v", p, res)
		}
		fc.resp.Results = append(fc.resp.Results, res)
	}
	fc.w.Reset()
	fc.resp.Encode(&fc.w)
	var err error
	fc.out, err = frame.AppendFrame(fc.out[:0], frame.TypeRouteResponse, 1, fc.w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
}

// TestFramedRoutePathAllocs pins the framed batch route path —
// decode→route→encode — at zero heap allocations per cycle, on the
// cache-hit path AND the cache-miss path, for every scheme: the miss
// path is the single walk (sim.Walk with no observer) under each
// scheme's step functions, name-independent searches included.
// AllocsPerRun's warm-up invocation grows the reusable buffers and
// primes the hit-path cache; after that, every cycle must touch only
// preallocated memory.
func TestFramedRoutePathAllocs(t *testing.T) {
	pairs := []frame.Pair{{Src: 0, Dst: 24}, {Src: 3, Dst: 17}, {Src: 24, Dst: 1}, {Src: 7, Dst: 20}}
	for _, scheme := range SchemeNames {
		// Hit path: caching on; after warm-up every query is a slot hit.
		hitEng := tcpTestEngine(t, 1<<10, scheme)
		hit := newFramedCycle(t, pairs)
		if n := testing.AllocsPerRun(200, func() { hit.run(t, hitEng) }); n != 0 {
			t.Errorf("%s cache-hit framed cycle: %.1f allocs/op, want 0", scheme, n)
		}

		// Miss path: caching disabled; every query routes from scratch.
		missEng := tcpTestEngine(t, 0, scheme)
		miss := newFramedCycle(t, pairs)
		if n := testing.AllocsPerRun(200, func() { miss.run(t, missEng) }); n != 0 {
			t.Errorf("%s cache-miss framed cycle: %.1f allocs/op, want 0", scheme, n)
		}
	}
}
