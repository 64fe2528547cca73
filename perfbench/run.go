package main

import (
	"fmt"
	"runtime"
	"time"

	"compactrouting/internal/frame"
	"compactrouting/internal/metric"
	"compactrouting/internal/server"
)

// config is one benchmark run.
type config struct {
	w       workload
	seed    int64
	seconds float64 // serve time, split over the phases
	trace   bool
}

// result is what a run reports.
type result struct {
	metrics   metrics
	attempted int64
	failed    int64
	issues    []string
	// p50 and p99 are the open-loop frame latency in µs, over the
	// frames of every round, with the frame count behind them.
	// They are reported in the run context, not as gated metrics: on
	// a shared 2-core VM the generator's 1 ms timer tick and idle-vCPU
	// wake-ups swing them from run to run by more than any allowed
	// bound.
	p50, p99       float64
	latencySamples int
	// lagP50 and lagP99 are how late the open-loop generator sent, in µs.
	lagP50, lagP99 float64
	spans          []span
}

// warmFrames is the frames each connection sends, checked but not
// timed, before the first measured phase.
const warmFrames = 16

// rounds is how many turns the untraced phases take; round r draws
// frames from r·roundFrames on, so no two rounds share queries.
const (
	rounds      = 10
	roundFrames = 1 << 24
)

// run executes one benchmark run: set-up, serve phases, answer checks,
// and in a traced run the per-layer measurements.
func run(cfg config) (*result, error) {
	w := cfg.w
	res := &result{metrics: metrics{}}
	m := res.metrics
	epoch := time.Now()

	var (
		e       *server.Engine
		schemes []compiled
		oracle  metric.Distancer // the traced set-up's backend
		err     error
	)
	if cfg.trace {
		var setup, cpu time.Duration
		if e, setup, cpu, err = newEngine(w); err != nil {
			return nil, err
		}
		m["par.setup_cpu_s"] = cpu.Seconds()
		m["par.setup_parallelism"] = ratio(cpu.Seconds(), setup.Seconds())
		var wall float64
		if schemes, oracle, wall, err = tracedSetup(w, m); err != nil {
			return nil, err
		}
		m["trace.setup_ratio"] = ratio(wall, setup.Seconds())
	} else {
		if e, m["setup_s"], m["live_heap_mb"], err = setupMedian(w, setups); err != nil {
			return nil, err
		}
		if schemes, err = servedSchemes(e); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	tableBits := 0
	for _, info := range e.Schemes() {
		if paperSchemes[info.Name] && info.TableMaxBits > tableBits {
			tableBits = info.TableMaxBits
		}
	}
	m["table_bits_max"] = float64(tableBits)
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}

	st := newStream(cfg.seed, w.n, len(schemes), w.hotKeys)
	ck := newChecker(schemes)
	srv, err := startServers(e)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	warmCaches(e, st, names)
	fp := framePhase{addr: srv.tcpAddr, st: st, ck: ck, epoch: epoch}
	warm := fp
	warm.name, warm.salt, warm.minFrames = "warm", saltWarm, conns*warmFrames
	if _, err := warm.run(); err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }

	closed := fp
	closed.name, closed.salt = "closed", saltClosed
	open := fp
	open.name, open.salt, open.rate = "open", saltOpen, w.openRate
	hp := httpPhase{addr: srv.httpAddr, st: st, ck: ck, names: names, salt: saltHTTP, epoch: epoch}

	if cfg.trace {
		closed.dur = share(0.2)
		base, err := closed.run()
		if err != nil {
			return nil, err
		}
		// The traced frame phase draws fresh frames, so a cold cache
		// stays cold.
		closed.salt = saltClosedTraced
		closed.traced, closed.dur = true, share(0.3)
		open.traced, open.dur = true, share(0.25)
		hp.traced, hp.dur = true, share(0.25)
		if err := tracedServe(e, closed, open, hp, base, res); err != nil {
			return nil, err
		}
	} else {
		// The phases take turns in short rounds; each rate is the
		// median over the rounds, so a slow spell on the shared box
		// moves one round of every phase, not one phase.
		var cls, hts []float64
		var all phaseResult
		for r := 0; r < rounds; r++ {
			closed.first, open.first, hp.first = r*roundFrames, r*roundFrames, r*roundFrames
			closed.dur, open.dur, hp.dur = share(0.45/rounds), share(0.2/rounds), share(0.35/rounds)
			cl, err := closed.run()
			if err != nil {
				return nil, err
			}
			op, err := open.run()
			if err != nil {
				return nil, err
			}
			ht, err := hp.run()
			if err != nil {
				return nil, err
			}
			cls, hts = append(cls, cl.qps()), append(hts, ht.qps())
			all.merge(op)
		}
		m["route_qps"], m["http_qps"] = median(cls), median(hts)
		res.p50, res.p99 = quantile(all.latUS, 0.5), quantile(all.latUS, 0.99)
		res.latencySamples = len(all.latUS)
		res.lagP50, res.lagP99 = quantile(all.lagUS, 0.5), quantile(all.lagUS, 0.99)
	}

	if m["stretch_mean"], err = reference(e, fp, names, w); err != nil {
		return nil, err
	}

	if cfg.trace {
		runtime.GC()
		replay(e, schemes, oracle, st, m)
		m["http.overhead_us_p50"] = m["http.rtt_us_p50"] - m["server.route_ns"]/1e3
	}
	res.attempted, res.failed = ck.attempted.Load(), ck.failed.Load()
	res.issues = ck.failures()
	if res.attempted == 0 {
		return nil, fmt.Errorf("no query was attempted")
	}
	return res, nil
}

// reference sends the workload's reference sample over the wire,
// answers it again in-process through Engine.Route, has the checker
// compare the two, and returns the sample's mean stretch. The sample
// is drawn from networkSeed, not from the run's seed: like the network
// it is part of the workload, so stretch_mean is the same on every
// run of the same code.
func reference(e *server.Engine, fp framePhase, names []string, w workload) (float64, error) {
	st := newStream(networkSeed, w.n, len(names), w.hotKeys)
	wire := make([][]frame.RouteResult, w.refFrames)
	fp.name, fp.st, fp.salt, fp.minFrames = "reference", st, saltReference, w.refFrames
	fp.keep = func(i int, results []frame.RouteResult) {
		wire[i] = append([]frame.RouteResult(nil), results...)
	}
	if _, err := fp.run(); err != nil {
		return 0, err
	}
	sum, count := 0.0, 0
	var pairs []frame.Pair
	for i, answers := range wire {
		var scheme int
		scheme, pairs = st.frame(saltReference, i, pairs)
		for j, p := range pairs {
			local, err := e.Route(names[scheme], int(p.Src), int(p.Dst))
			fp.ck.reference(scheme, p, answers[j], local, err)
			sum += answers[j].Cost / answers[j].Optimal
			count++
		}
	}
	return sum / float64(count), nil
}

// warmCaches fills both route caches with the hot universe (every key
// on every scheme), as a long-running daemon's caches would be. Cold
// workloads have no universe and start cold.
func warmCaches(e *server.Engine, st *stream, names []string) {
	for k, name := range names {
		for _, p := range st.keys {
			e.RouteLite(k, int(p.Src), int(p.Dst))
			e.Route(name, int(p.Src), int(p.Dst))
		}
	}
}

// tracedServe runs the traced serve phases, recording client spans and
// reading the engine's counters and the runtime's around each phase.
func tracedServe(e *server.Engine, closed, open framePhase, hp httpPhase, base phaseResult, res *result) error {
	m := res.metrics
	before, mem0 := e.Metrics(), memStats()
	cl, err := closed.run()
	if err != nil {
		return err
	}
	after, mem1 := e.Metrics(), memStats()
	m["trace.route_qps_ratio"] = ratio(cl.qps(), base.qps())
	m["server.lite_hit_ratio"] = hitRatio(before.Cache, after.Cache)
	frameLat := histDelta(before.TCP.FrameLatency, after.TCP.FrameLatency)
	m["server.frame_us_p50"] = histQuantile(frameLat, 0.5)
	m["server.frame_us_p99"] = histQuantile(frameLat, 0.99)
	m["server.route_hit_us_p50"] = histQuantile(histDelta(before.RouteLatencyHit, after.RouteLatencyHit), 0.5)
	m["server.route_miss_us_p50"] = histQuantile(histDelta(before.RouteLatencyMiss, after.RouteLatencyMiss), 0.5)
	m["tcp.rtt_us_p50"] = quantile(cl.latUS, 0.5)
	m["tcp.overhead_us_p50"] = m["tcp.rtt_us_p50"] - m["server.frame_us_p50"]
	m["runtime.alloc_bytes_per_query"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(cl.queries))
	m["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)

	op, err := open.run()
	if err != nil {
		return err
	}
	m["load.lag_p99_us"] = quantile(op.lagUS, 0.99)
	m["load.route_p50_us"] = quantile(op.latUS, 0.5)
	m["load.route_p99_us"] = quantile(op.latUS, 0.99)

	before, mem0 = e.Metrics(), memStats()
	ht, err := hp.run()
	if err != nil {
		return err
	}
	after, mem1 = e.Metrics(), memStats()
	m["server.lru_hit_ratio"] = hitRatio(before.Cache, after.Cache)
	m["http.rtt_us_p50"] = quantile(ht.latUS, 0.5)
	m["runtime.http_alloc_bytes_per_query"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(ht.queries))
	m["runtime.http_gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)

	res.spans = append(append(cl.spans, op.spans...), ht.spans...)
	return nil
}

// hitRatio is the cache hit share between two snapshots, from the Hits
// and Misses counters (which cover both caches; CacheSnapshot.HitRate
// covers only the HTTP LRU).
func hitRatio(a, b server.CacheSnapshot) float64 {
	hits := float64(b.Hits - a.Hits)
	return ratio(hits, hits+float64(b.Misses-a.Misses))
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
