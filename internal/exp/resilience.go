package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"compactrouting/internal/baseline"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/par"
	"compactrouting/internal/sim"
)

// ChaosConfig parameterizes the resilience sweep. cmd/chaossim builds
// it from its flags; the flag defaults are the sweep `make bench`
// writes to BENCH_chaossim.json.
type ChaosConfig struct {
	// LossRates are the per-hop packet-loss probabilities swept.
	LossRates []float64
	// FailFracs are the fractions of edges taken down (permanently, from
	// virtual time 0) swept.
	FailFracs []float64
	// Rel is the retry policy compared against single-shot sends.
	Rel faultsim.Reliability
	// HopLatency is the virtual time per hop (interacts with Rel's
	// backoff and deadline).
	HopLatency float64
}

// ChaosRecord is one (scheme, loss rate, failed-edge fraction) cell of
// the resilience sweep. Every field is a pure function of the inputs
// and the seed — no wall-clock — so the JSON sweep is byte-reproducible.
type ChaosRecord struct {
	Scheme             string  `json:"scheme"`
	Graph              string  `json:"graph"`
	N                  int     `json:"n"`
	M                  int     `json:"m"`
	Eps                float64 `json:"eps"`
	Seed               int64   `json:"seed"`
	Pairs              int     `json:"pairs"`
	Loss               float64 `json:"loss"`
	EdgeFailFrac       float64 `json:"edge_fail_frac"`
	FailedEdges        int     `json:"failed_edges"`
	MaxAttempts        int     `json:"max_attempts"`
	DeliveredNoRetry   int     `json:"delivered_no_retry"`
	DeliveredRetry     int     `json:"delivered_retry"`
	RateNoRetry        float64 `json:"delivery_rate_no_retry"`
	RateRetry          float64 `json:"delivery_rate_retry"`
	MeanAttempts       float64 `json:"mean_attempts"`
	TotalDrops         int     `json:"total_drops"`
	StretchFaultFree   float64 `json:"stretch_mean_fault_free"`
	StretchDelivered   float64 `json:"stretch_mean_delivered"`
	StretchDegradation float64 `json:"stretch_degradation"`
}

// chaosScheme is one scheme erased to a fault-injected deliver call
// taking a destination NODE id.
type chaosScheme struct {
	name    string
	deliver func(src, dst int, in *faultsim.Injector, rel faultsim.Reliability, id uint64) faultsim.Result
}

func chaosErase[H sim.Header](name string, g *graph.Graph, r sim.Router[H], addr func(int) int, maxHops int) chaosScheme {
	return chaosScheme{
		name: name,
		deliver: func(src, dst int, in *faultsim.Injector, rel faultsim.Reliability, id uint64) faultsim.Result {
			return faultsim.Deliver(g, r, src, addr(dst), maxHops, in, rel, id)
		},
	}
}

// chaosSchemes compiles the resilience cohort: the full-table baseline
// against the paper's labeled and name-independent schemes. The five
// schemes build in parallel; the returned order is fixed.
func chaosSchemes(e *Env, eps float64, seed int64) ([]chaosScheme, error) {
	n := e.G.N()
	self := func(v int) int { return v }
	builders := []func() (chaosScheme, error){
		func() (chaosScheme, error) {
			full := baseline.NewFullTable(e.G, e.A)
			return chaosErase("full-table", e.G, sim.FullTableRouter{S: full}, self, 0), nil
		},
		func() (chaosScheme, error) {
			simple, err := buildLabeledSimple(e, minf(eps, 0.5))
			if err != nil {
				return chaosScheme{}, err
			}
			return chaosErase("simple-labeled", e.G, sim.SimpleLabeledRouter{S: simple}, simple.LabelOf, 0), nil
		},
		func() (chaosScheme, error) {
			free, err := buildLabeledScaleFree(e, minf(eps, 0.25))
			if err != nil {
				return chaosScheme{}, err
			}
			return chaosErase("scale-free-labeled", e.G, sim.ScaleFreeLabeledRouter{S: free}, free.LabelOf, 64*n), nil
		},
		func() (chaosScheme, error) {
			ni, err := buildNameIndSimple(e, minf(eps, 1.0/3), seed)
			if err != nil {
				return chaosScheme{}, err
			}
			return chaosErase("name-independent", e.G, sim.NameIndependentRouter{S: ni}, ni.NameOf, 256*n), nil
		},
		func() (chaosScheme, error) {
			sfni, err := buildNameIndScaleFree(e, minf(eps, 0.25), seed)
			if err != nil {
				return chaosScheme{}, err
			}
			return chaosErase("scale-free-name-independent", e.G, sim.ScaleFreeNameIndependentRouter{S: sfni}, sfni.NameOf, 512*n), nil
		},
	}
	return par.MapErr(len(builders), func(i int) (chaosScheme, error) { return builders[i]() })
}

// failedEdges deterministically selects floor(frac * M) edges and takes
// them down permanently from virtual time 0 (edge deletion).
func failedEdges(g *graph.Graph, frac float64, seed int64) []faultsim.EdgeOutage {
	if frac <= 0 {
		return nil
	}
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				edges = append(edges, [2]int{u, e.To})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	k := int(frac * float64(len(edges)))
	out := make([]faultsim.EdgeOutage, 0, k)
	for _, e := range edges[:k] {
		out = append(out, faultsim.EdgeOutage{U: e[0], V: e[1]})
	}
	return out
}

// ChaosSweep runs the resilience experiment: for every scheme and every
// (loss rate, failed-edge fraction) cell it routes the sampled pairs
// twice — single-shot and with the retry policy — over the same fault
// draws, and reports delivery rates and the stretch of what still
// arrives relative to the scheme's fault-free stretch.
func ChaosSweep(e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) ([]ChaosRecord, error) {
	pairs := e.Pairs(pairCount, seed)
	schemes, err := chaosSchemes(e, eps, seed)
	if err != nil {
		return nil, err
	}
	runAll := func(sc chaosScheme, in *faultsim.Injector, rel faultsim.Reliability) []faultsim.Result {
		out := make([]faultsim.Result, len(pairs))
		for i, p := range pairs {
			out[i] = sc.deliver(p[0], p[1], in, rel, uint64(i))
		}
		return out
	}
	meanStretch := func(results []faultsim.Result) float64 {
		sum, n := 0.0, 0
		for i, r := range results {
			if !r.Delivered {
				continue
			}
			opt := e.A.Dist(pairs[i][0], pairs[i][1])
			if opt == 0 {
				continue
			}
			sum += r.Sim.Cost / opt
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	// Fault-free baselines, one per scheme, in parallel.
	baselines := par.Map(len(schemes), func(si int) float64 {
		return meanStretch(runAll(schemes[si], faultsim.NewInjector(faultsim.FaultPlan{}), faultsim.Reliability{}))
	})
	// Every (scheme, failed-edge fraction, loss rate) cell owns its
	// injector and fault draws (a pure hash of seed/delivery/attempt/
	// hop), so the cells run in parallel and the ordered Map keeps the
	// record order — and every value — identical to the serial triple
	// loop this replaces; `make check` double-run-diffs the JSON.
	nCells := len(cfg.FailFracs) * len(cfg.LossRates)
	out := par.Map(len(schemes)*nCells, func(cell int) ChaosRecord {
		si := cell / nCells
		fi := (cell % nCells) / len(cfg.LossRates)
		li := cell % len(cfg.LossRates)
		sc, frac, loss := schemes[si], cfg.FailFracs[fi], cfg.LossRates[li]
		baseStretch := baselines[si]
		outages := failedEdges(e.G, frac, seed+int64(fi))
		plan := faultsim.FaultPlan{
			Seed:        seed + int64(1000*fi+li),
			Loss:        loss,
			HopLatency:  cfg.HopLatency,
			EdgeOutages: outages,
		}
		in := faultsim.NewInjector(plan)
		once := runAll(sc, in, faultsim.Reliability{MaxAttempts: 1})
		retried := runAll(sc, in, cfg.Rel)
		rec := ChaosRecord{
			Scheme:           sc.name,
			Graph:            e.Name,
			N:                e.G.N(),
			M:                e.G.M(),
			Eps:              eps,
			Seed:             seed,
			Pairs:            len(pairs),
			Loss:             loss,
			EdgeFailFrac:     frac,
			FailedEdges:      len(outages),
			MaxAttempts:      cfg.Rel.MaxAttempts,
			StretchFaultFree: baseStretch,
		}
		var attempts, drops int
		for i := range retried {
			if once[i].Delivered {
				rec.DeliveredNoRetry++
			}
			if retried[i].Delivered {
				rec.DeliveredRetry++
			}
			attempts += retried[i].Attempts
			drops += retried[i].Drops
		}
		rec.RateNoRetry = float64(rec.DeliveredNoRetry) / float64(len(pairs))
		rec.RateRetry = float64(rec.DeliveredRetry) / float64(len(pairs))
		rec.MeanAttempts = float64(attempts) / float64(len(pairs))
		rec.TotalDrops = drops
		rec.StretchDelivered = meanStretch(retried)
		if baseStretch > 0 && rec.StretchDelivered > 0 {
			rec.StretchDegradation = rec.StretchDelivered / baseStretch
		}
		return rec
	})
	return out, nil
}

// Resilience prints the sweep as aligned tables, one block per scheme:
// how delivery rate and stretch degrade as links get lossy and edges
// fail, and how much the retry layer claws back.
func Resilience(w io.Writer, e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) error {
	records, err := ChaosSweep(e, cfg, eps, pairCount, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Resilience under injected faults — %s, eps=%v, %d pairs, retry policy: %d attempts\n",
		e.Name, eps, records[0].Pairs, cfg.Rel.MaxAttempts)
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tloss\tedges down\tdelivered (1 try)\tdelivered (retry)\tmean attempts\tstretch (delivered)\tdegradation")
	last := ""
	for _, r := range records {
		name := r.Scheme
		if name == last {
			name = ""
		} else if last != "" {
			fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
		}
		last = r.Scheme
		fmt.Fprintf(tw, "%s\t%.2f\t%d (%.0f%%)\t%.1f%%\t%.1f%%\t%.2f\t%.3f\t%.3fx\n",
			name, r.Loss, r.FailedEdges, 100*r.EdgeFailFrac,
			100*r.RateNoRetry, 100*r.RateRetry, r.MeanAttempts,
			r.StretchDelivered, r.StretchDegradation)
	}
	return tw.Flush()
}

// WriteChaosJSON runs ChaosSweep and writes the records as an indented
// JSON array. The output is a pure function of (env, cfg, eps, pairs,
// seed): running it twice must produce byte-identical files, which
// `make check` asserts.
func WriteChaosJSON(w io.Writer, e *Env, cfg ChaosConfig, eps float64, pairCount int, seed int64) error {
	records, err := ChaosSweep(e, cfg, eps, pairCount, seed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
