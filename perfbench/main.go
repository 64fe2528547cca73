// Command perfbench is the repository's benchmark: it builds a routed
// engine (server.New over compactrouting.GenerateNetwork), serves a
// seeded query stream to it over loopback through the binary frame
// protocol and HTTP/JSON, checks every answer, and prints the
// end-to-end metrics. With --trace 1 it instead reports per-layer
// metrics, timed around calls into each layer's public functions.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload geo-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the line before
// it records the hardware and run context. See README.md.
//
//determinlint:goroutines
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"route_qps", "queries/s"},
	{"http_qps", "queries/s"},
	{"stretch_mean", "ratio"},
	{"table_bits_max", "bits"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not build (a constructor, the ball packing) reports 0.
var perLayer = []metricDef{
	{"graph.gen_ms", "ms"},
	{"metric.build_ms", "ms"},
	{"metric.setup.calls.dist", "count"},
	{"metric.setup.calls.ball", "count"},
	{"metric.setup.calls.nearest", "count"},
	{"metric.setup.calls.nexthop", "count"},
	{"metric.setup.calls.order", "count"},
	{"metric.setup.calls.prefetch", "count"},
	{"metric.setup.busy_ms", "ms"},
	{"metric.cached_entries", "count"},
	{"metric.serve.dist_ns", "ns"},
	{"rnet.hierarchy_ms", "ms"},
	{"ballpack.packing_ms", "ms"},
	{"labeled.simple_ms", "ms"},
	{"labeled.scalefree_ms", "ms"},
	{"nameind.simple_ms", "ms"},
	{"nameind.scalefree_ms", "ms"},
	{"baseline.fulltable_ms", "ms"},
	{"baseline.singletree_ms", "ms"},
	{"par.setup_cpu_s", "s"},
	{"par.setup_parallelism", "ratio"},
	{"sim.walk_ns.simple-labeled", "ns"},
	{"sim.walk_ns.scale-free-labeled", "ns"},
	{"sim.walk_ns.name-independent", "ns"},
	{"sim.walk_ns.scale-free-name-independent", "ns"},
	{"sim.walk_ns.full-table", "ns"},
	{"sim.walk_ns.single-tree", "ns"},
	{"sim.hops_per_query", "hops"},
	{"server.route_lite_ns", "ns"},
	{"server.lite_hit_ratio", "ratio"},
	{"server.lru_hit_ratio", "ratio"},
	{"server.route_ns", "ns"},
	{"server.frame_us_p50", "us"},
	{"server.frame_us_p99", "us"},
	{"server.route_hit_us_p50", "us"},
	{"server.route_miss_us_p50", "us"},
	{"frame.decode_ns", "ns"},
	{"frame.encode_ns", "ns"},
	{"frame.bytes_per_query", "bytes"},
	{"tcp.rtt_us_p50", "us"},
	{"tcp.overhead_us_p50", "us"},
	{"http.rtt_us_p50", "us"},
	{"http.overhead_us_p50", "us"},
	{"runtime.alloc_bytes_per_query", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.http_alloc_bytes_per_query", "bytes"},
	{"runtime.http_gc_cycles", "count"},
	{"load.lag_p99_us", "us"},
	{"load.route_p50_us", "us"},
	{"load.route_p99_us", "us"},
	{"trace.setup_ratio", "ratio"},
	{"trace.route_qps_ratio", "ratio"},
}

// setups is how many times an untraced run builds the engine; setup_s
// is their median.
const setups = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "query-stream seed")
		seconds = flag.Float64("seconds", 10, "serve time of the run, split over its phases")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "traced run: write the client spans to this file")
		commit  = flag.String("commit", "unknown", "source commit, recorded in the run context")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *spans, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace bool, spansPath, commit string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := run(config{w: w, seed: seed, seconds: seconds, trace: trace})
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if trace && spansPath != "" {
		if err := writeSpans(spansPath, res.spans); err != nil {
			return err
		}
	}
	for _, issue := range res.issues {
		fmt.Fprintln(os.Stderr, "wrong answer:", issue)
	}
	ctx := map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"trace":           trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"commit":          commit,
		"error_rate":      float64(res.failed) / float64(res.attempted),
		"open_loop_qps":   w.openRate,
		"route_p50_us":    res.p50,
		"route_p99_us":    res.p99,
		"latency_samples": res.latencySamples,
		"lag_p50_us":      res.lagP50,
		"lag_p99_us":      res.lagP99,
		"spans":           len(res.spans),
	}
	out, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if out, err = json.Marshal(rep); err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// writeSpans writes the traced run's client spans as JSON lines,
// ordered by start time.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"phase":%q,"conn":%d,"frame":%d,"scheme":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.phase, s.conn, s.frame, s.scheme, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
