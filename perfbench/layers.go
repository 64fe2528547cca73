package main

import (
	"time"

	"compactrouting/internal/bits"
	"compactrouting/internal/frame"
	"compactrouting/internal/metric"
	"compactrouting/internal/server"
)

// replayFrames bounds the in-process replay; replayBudget bounds each
// layer's share of it, so the slow lazy cells stay within the run.
// The first replayMin frames of every layer always run: the counts
// taken over them (hops, bytes) repeat exactly for a seed.
const (
	replayFrames = 512
	replayMin    = 16
	replayBudget = 750 * time.Millisecond
)

// replayFrame is one frame of the replay stream: the query batch, its
// encoded request, and the engine's answers.
type replayFrame struct {
	scheme  int
	pairs   []frame.Pair
	request []byte
	results []frame.RouteResult
}

// replay runs a fresh sample of the workload's query stream through
// each serving layer's public entry point in-process, timing every
// call per frame: the frame codec, Engine.RouteLite (both caches'
// front), Engine.Route (the LRU and the path-carrying walk), the
// backend's Dist, and each scheme's hop walk.
func replay(e *server.Engine, schemes []compiled, oracle metric.Distancer, st *stream, m metrics) {
	frames := make([]replayFrame, replayFrames)
	var w bits.Writer
	for i := range frames {
		f := &frames[i]
		f.scheme, f.pairs = st.frame(saltReplay, i, nil)
		req := frame.RouteRequest{Scheme: f.scheme, Pairs: f.pairs}
		w.Reset()
		req.Encode(&w)
		f.request = append([]byte(nil), w.Bytes()...)
	}

	var (
		rd  bits.Reader
		req frame.RouteRequest
	)
	m["frame.decode_ns"] = perCall(len(frames), 1, func(i int) {
		if err := req.DecodeInto(frames[i].request, &rd); err != nil {
			panic(err) // the benchmark encoded it itself
		}
	})
	reached := 0 // frames the RouteLite replay answered
	m["server.route_lite_ns"] = perCall(len(frames), framePairs, func(i int) {
		f := &frames[i]
		reached++
		f.results = make([]frame.RouteResult, len(f.pairs))
		for j, p := range f.pairs {
			f.results[j] = e.RouteLite(f.scheme, int(p.Src), int(p.Dst))
		}
	})
	var (
		out   []byte
		bytes int
	)
	m["frame.encode_ns"] = perCall(reached, 1, func(i int) {
		f := &frames[i]
		resp := frame.RouteResponse{Results: f.results}
		w.Reset()
		resp.Encode(&w)
		out, _ = frame.AppendFrame(out[:0], frame.TypeRouteResponse, uint64(i), w.Bytes())
		if i < replayMin {
			bytes += frame.HeaderSize + len(f.request) + len(out)
		}
	})
	m["frame.bytes_per_query"] = ratio(float64(bytes), float64(replayMin*framePairs))

	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	m["server.route_ns"] = perCall(len(frames), framePairs, func(i int) {
		f := &frames[i]
		for _, p := range f.pairs {
			e.Route(names[f.scheme], int(p.Src), int(p.Dst))
		}
	})
	m["metric.serve.dist_ns"] = perCall(len(frames), framePairs, func(i int) {
		for _, p := range frames[i].pairs {
			oracle.Dist(int(p.Src), int(p.Dst))
		}
	})

	// Hop walks, per scheme, over the frames that address it.
	hops, walks := 0, 0
	for _, name := range server.SchemeNames {
		m["sim.walk_ns."+name] = 0
	}
	for k, s := range schemes {
		var mine []int
		for i := range frames {
			if frames[i].scheme == k {
				mine = append(mine, i)
			}
		}
		m["sim.walk_ns."+s.name] = perCall(len(mine), framePairs, func(i int) {
			for _, p := range frames[mine[i]].pairs {
				r := s.walk(int(p.Src), int(p.Dst))
				if i < replayMin {
					hops += r.Hops
					walks++
				}
			}
		})
	}
	m["sim.hops_per_query"] = ratio(float64(hops), float64(walks))
}

// perCall runs body(i) for i = 0.. until n, and past replayMin only
// while within replayBudget, timing each call; it returns the mean
// nanoseconds per query (calls is the number of queries one body
// handles).
func perCall(n, calls int, body func(i int)) float64 {
	var spent time.Duration
	done := 0
	for i := 0; i < n && (i < replayMin || spent < replayBudget); i++ {
		t := time.Now()
		body(i)
		spent += time.Since(t)
		done += calls
	}
	return ratio(float64(spent.Nanoseconds()), float64(done))
}
