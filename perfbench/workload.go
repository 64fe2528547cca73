package main

import (
	"fmt"

	"compactrouting"
	"compactrouting/internal/server"
)

// networkSeed fixes the network every workload serves. The run seed
// (--seed) drives the query stream only, so set-up time and table
// sizes are properties of the code, not of which random graph a seed
// happened to draw.
const networkSeed = 1

// cacheEntries is routed's default route-cache size (both caches).
const cacheEntries = 1 << 16

// workload is one benchmark cell: the network and schemes built at
// set-up, and the traffic served afterwards.
type workload struct {
	name    string
	kind    string // compactrouting.GenerateNetwork family
	n       int
	backend compactrouting.Backend
	schemes []string
	// hotKeys > 0 draws pairs Zipf-skewed over a fixed universe of
	// hotKeys pairs (which fits in both caches); 0 draws uniform pairs
	// over all ordered pairs.
	hotKeys int
	// openRate is the open-loop phase's offered load in queries/s,
	// about a quarter of the closed-loop rate measured at the parent
	// commit: low enough that a spell of the shared 2-core box running
	// at half speed does not tip the queue into unbounded growth.
	openRate float64
	// refFrames is the size of the reference sample, in frames: a fixed
	// stream drawn from networkSeed, sent after the timed phases and
	// answered again in-process; it gives stretch_mean.
	refFrames int
}

// workloads are the gated workloads, in BENCHMARK.json's order.
var workloads = []workload{
	{
		name: "geo-cold", kind: "geometric", n: 1024,
		backend: compactrouting.BackendDense, schemes: server.SchemeNames,
		openRate: 20000, refFrames: 256,
	},
	{
		name: "geo-hot", kind: "geometric", n: 1024,
		backend: compactrouting.BackendDense, schemes: server.SchemeNames,
		hotKeys: 1024, openRate: 80000, refFrames: 256,
	},
}

// ungated are workloads that run on request but are not in
// BENCHMARK.json: their rates moved between sets of runs of the same
// code by more than the largest bound a gated metric may have (see
// README.md).
var ungated = []workload{
	{
		// Only the schemes that finish in bounded time on the lazy
		// backend: lazy name-independent and scale-free cells take
		// minutes (see README.md).
		name: "plaw-lazy", kind: "power-law", n: 1024,
		backend:  compactrouting.BackendLazy,
		schemes:  []string{"simple-labeled", "full-table", "single-tree"},
		openRate: 800, refFrames: 32,
	},
}

func findWorkload(name string) (workload, error) {
	all := append(append([]workload(nil), workloads...), ungated...)
	names := make([]string, len(all))
	for i, w := range all {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperSchemes are the paper's four constructions; table_bits_max is
// taken over the ones a workload compiles.
var paperSchemes = map[string]bool{
	"simple-labeled":              true,
	"scale-free-labeled":          true,
	"name-independent":            true,
	"scale-free-name-independent": true,
}
