package main

import (
	"strings"
	"testing"

	"compactrouting"
	"compactrouting/internal/server"
)

// tinyWorkloads are the benchmark's workload shapes at a size a unit
// test can build: the doubling family with a hot universe on the dense
// backend, and the power-law family with uniform traffic on the lazy
// one.
var tinyWorkloads = []workload{
	{
		name: "tiny-geo-hot", kind: "geometric", n: 64,
		backend: compactrouting.BackendDense, schemes: server.SchemeNames,
		hotKeys: 32, openRate: 4000, refFrames: 12,
	},
	{
		name: "tiny-plaw-lazy", kind: "power-law", n: 64,
		backend:  compactrouting.BackendLazy,
		schemes:  []string{"simple-labeled", "full-table", "single-tree"},
		openRate: 4000, refFrames: 6,
	},
}

// deterministic reports whether a metric is a pure function of the
// workload and seed: route quality, table size, and the work counters.
func deterministic(name string) bool {
	return name == "stretch_mean" || name == "table_bits_max" ||
		name == "sim.hops_per_query" || strings.HasPrefix(name, "metric.setup.calls.")
}

// TestDeterministicMetricsRepeat runs each tiny workload twice with the
// same seed, traced, and requires the deterministic metrics to repeat
// exactly and every answer to check out.
func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var first metrics
			for i := 0; i < 2; i++ {
				res, err := run(config{w: w, seed: 5, seconds: 0.4, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("%d of %d answers failed: %v", res.failed, res.attempted, res.issues)
				}
				for _, d := range perLayer {
					if _, ok := res.metrics[d.name]; !ok {
						t.Errorf("per-layer metric %s missing", d.name)
					}
				}
				if first == nil {
					first = res.metrics
					continue
				}
				checked := 0
				for name, v := range res.metrics {
					if !deterministic(name) {
						continue
					}
					checked++
					if v != first[name] {
						t.Errorf("%s: %v then %v", name, first[name], v)
					}
				}
				if checked != 9 {
					t.Errorf("compared %d deterministic metrics, want 9", checked)
				}
			}
		})
	}
}

// TestUntracedRunReportsEndToEnd: an untraced run measures every
// end-to-end metric, each nonzero.
func TestUntracedRunReportsEndToEnd(t *testing.T) {
	res, err := run(config{w: tinyWorkloads[0], seed: 9, seconds: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d answers failed: %v", res.failed, res.attempted, res.issues)
	}
	for _, d := range endToEnd {
		if v := res.metrics[d.name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.name, v)
		}
	}
}

// TestStretchMeanIgnoresSeed: the reference sample is part of the
// workload, like the network, so stretch_mean is the same whichever
// seed drives the query stream.
func TestStretchMeanIgnoresSeed(t *testing.T) {
	var got []float64
	for _, seed := range []int64{1, 2} {
		res, err := run(config{w: tinyWorkloads[0], seed: seed, seconds: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.metrics["stretch_mean"])
	}
	if got[0] != got[1] {
		t.Errorf("stretch_mean %v under seed 1, %v under seed 2", got[0], got[1])
	}
}
