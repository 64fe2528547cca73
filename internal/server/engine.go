// Package server is the serving layer of the repository: it compiles a
// set of routing schemes over one network ONCE and then answers
// route/stretch queries concurrently, the preprocessing/query split
// compact routing is designed around.
//
// The package is layered (see DESIGN.md §server architecture):
//
//	handlers (HTTP/JSON) --.
//	                        +-> Engine.answer -> route cache (direct-mapped slots, both planes)
//	TCP frames (RouteLite) -'         |
//	                          one runner per scheme -> sim.Walk over sim.Router adapters
//
// Every scheme is driven through its internal/sim Router adapter and
// sim.Walk, the one hop loop — the same pure (table, header) step
// functions validated by the concurrent simulator — so a served route
// is byte-identical to the scheme's analyzed walk. The engine is
// race-clean: scheme tables are immutable after compilation, per-query
// state lives in the packet header, and reload swaps the whole
// immutable state atomically.
package server

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compactrouting"
	"compactrouting/internal/baseline"
	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/par"
	"compactrouting/internal/sim"
	"compactrouting/internal/trace"
)

// SchemeNames are the schemes the engine can compile, in report order.
var SchemeNames = []string{
	"simple-labeled",
	"scale-free-labeled",
	"name-independent",
	"scale-free-name-independent",
	"full-table",
	"single-tree",
}

// Config parameterizes an Engine.
type Config struct {
	// Build constructs the network for a given seed; called at startup
	// and again on every reload. Required.
	Build func(seed int64) (*compactrouting.Network, error)
	// Seed is the initial Build seed (also salts the name-independent
	// namings).
	Seed int64
	// Eps is the stretch parameter; clamped per scheme to its analyzed
	// range. Zero selects 0.25.
	Eps float64
	// Schemes to compile; nil compiles all of SchemeNames.
	Schemes []string
	// CacheEntries bounds the route cache (<= 0 disables caching).
	CacheEntries int
	// Workers bounds the batch fan-out pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Chaos, when non-nil, injects per-hop packet loss into every served
	// route (with source-side retries) so the daemon's degradation under
	// faults can be observed live on /metrics.
	Chaos *ChaosParams
	// TraceSample, when > 0, runs every Nth route query traced and folds
	// the per-phase detour decomposition into /metrics (counter-based:
	// under sequential load the sampled request set is a pure function of
	// request order). 0 disables sampling.
	TraceSample int
	// TraceHopCap bounds the hop records echoed in a ?trace=1 response
	// (the summary always covers the full walk). 0 selects
	// DefaultTraceHopCap; negative means no cap.
	TraceHopCap int
}

// DefaultTraceHopCap is the default bound on hop records per ?trace=1
// response.
const DefaultTraceHopCap = 512

// ChaosParams configures the daemon's fault injection (routed -chaos).
type ChaosParams struct {
	// Loss is the per-hop drop probability in [0, 1].
	Loss float64
	// Seed keys the deterministic fault draws (0 uses Config.Seed).
	Seed int64
	// MaxAttempts bounds transmissions per query; <= 0 uses the
	// faultsim default policy's attempts.
	MaxAttempts int
}

// chaosRuntime is the compiled injection state shared by every scheme.
type chaosRuntime struct {
	in  *faultsim.Injector
	rel faultsim.Reliability
	seq atomic.Uint64 // per-query delivery ids: each query gets fresh draws
}

func newChaosRuntime(p *ChaosParams, fallbackSeed int64) *chaosRuntime {
	if p == nil {
		return nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = fallbackSeed
	}
	rel := faultsim.DefaultReliability
	if p.MaxAttempts > 0 {
		rel.MaxAttempts = p.MaxAttempts
	}
	return &chaosRuntime{
		in:  faultsim.NewInjector(faultsim.FaultPlan{Seed: seed, Loss: p.Loss}),
		rel: rel,
	}
}

// RouteResult is one answered route query. Cached is set per response;
// all other fields are immutable once computed and may be shared
// between responses via the cache.
type RouteResult struct {
	Scheme        string  `json:"scheme"`
	Src           int     `json:"src"`
	Dst           int     `json:"dst"`
	Path          []int   `json:"path,omitempty"`
	Hops          int     `json:"hops"`
	Cost          float64 `json:"cost"`
	Optimal       float64 `json:"optimal"`
	Stretch       float64 `json:"stretch"`
	MaxHeaderBits int     `json:"max_header_bits"`
	Cached        bool    `json:"cached"`
	// Attempts and Drops report the reliability layer's work when the
	// engine runs with fault injection (zero otherwise).
	Attempts int `json:"attempts,omitempty"`
	Drops    int `json:"drops,omitempty"`
	// Trace is the per-hop execution trace, present only on ?trace=1
	// queries (hop log capped by Config.TraceHopCap). Never cached.
	Trace *trace.Wire `json:"trace,omitempty"`
}

// SchemeInfo is the GET /schemes accounting for one compiled scheme,
// with sizes in bits of the actual serialization (internal/bits).
type SchemeInfo struct {
	Name          string  `json:"name"`
	Kind          string  `json:"kind"` // labeled | name-independent | baseline
	LabelBits     int     `json:"label_bits"`
	TableMaxBits  int     `json:"table_max_bits"`
	TableMeanBits float64 `json:"table_mean_bits"`
	TableTotal    int     `json:"table_total_bits"`
	BuildMillis   float64 `json:"build_ms"`
}

// GraphInfo describes the currently served network.
type GraphInfo struct {
	Nodes              int     `json:"nodes"`
	Edges              int     `json:"edges"`
	Seed               int64   `json:"seed"`
	Generation         uint64  `json:"generation"`
	Diameter           float64 `json:"diameter"`
	NormalizedDiameter float64 `json:"normalized_diameter"`
}

// scheme is one compiled scheme plus its type-erased runner.
type scheme struct {
	info SchemeInfo
	// impl is the concrete scheme object (e.g. *labeled.Simple) the
	// runner closes over; the snapshot plane serializes it.
	impl any
	// run is the scheme's one runner over sim.Walk. The hotpath
	// annotation lets RouteLite call through this indirection: with a
	// zero walkSpec the runner is sim.RouteLite, which carries its own
	// annotation, and TestFramedRoutePathAllocs pins the whole cycle at
	// 0 allocs/op for every scheme.
	//
	//determinlint:hotpath
	run runner
}

// runner walks one query from src to node dst as spec asks.
type runner func(src, dst int, spec walkSpec) walkOut

// walkSpec says what a walk records besides its shape.
type walkSpec struct {
	path  bool         // record the path (HTTP answers)
	tr    *trace.Trace // record a hop log; nil for none
	chaos uint64       // nonzero: deliver under the fault injector with this delivery id
}

// walkOut is a runner's result: the walk's shape, the path when one was
// recorded, and the reliability layer's work under fault injection.
type walkOut struct {
	sim.LiteResult
	path            []int
	attempts, drops int
}

// state is the engine's immutable-after-build world; reload builds a
// fresh one and swaps the pointer.
type state struct {
	nw    *compactrouting.Network
	seed  int64
	gen   uint64
	order []string
	// list holds the schemes in compile order: the binary protocol and
	// the route cache address schemes by index; index maps names to it.
	list  []*scheme
	index map[string]int
}

func newState(nw *compactrouting.Network, seed int64, gen uint64) *state {
	return &state{nw: nw, seed: seed, gen: gen, index: make(map[string]int)}
}

// add appends a compiled scheme in compile order.
func (st *state) add(s *scheme) {
	st.index[s.info.Name] = len(st.list)
	st.order = append(st.order, s.info.Name)
	st.list = append(st.list, s)
}

// Engine owns the compiled schemes, the route cache and the metrics.
// All methods are safe for concurrent use.
type Engine struct {
	cfg         Config
	cache       *routeCache // nil when caching is disabled
	met         *metrics
	workers     int
	chaos       *chaosRuntime // nil when fault injection is off
	traceSample int           // sample every Nth route traced; 0 = off
	traceHopCap int           // hop records per ?trace=1 response; <= 0 = no cap
	traceSeq    atomic.Uint64 // route counter driving the 1-in-N sampler
	st          atomic.Pointer[state]
	reload      sync.Mutex // serializes Reload, not queries
}

// New builds the network via cfg.Build(cfg.Seed) and compiles the
// configured schemes.
func New(cfg Config) (*Engine, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("server: Config.Build is required")
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.25
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = SchemeNames
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hopCap := cfg.TraceHopCap
	if hopCap == 0 {
		hopCap = DefaultTraceHopCap
	}
	e := newEngine(cfg, workers, hopCap)
	st, err := e.build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	e.st.Store(st)
	return e, nil
}

// newEngine assembles the engine shell shared by New and
// NewFromSnapshot (everything but the serving state).
func newEngine(cfg Config, workers, hopCap int) *Engine {
	return &Engine{
		cfg:         cfg,
		cache:       newRouteCache(cfg.CacheEntries),
		met:         newMetrics(cfg.Schemes),
		workers:     workers,
		chaos:       newChaosRuntime(cfg.Chaos, cfg.Seed),
		traceSample: cfg.TraceSample,
		traceHopCap: hopCap,
	}
}

// build constructs a full state: network plus every configured scheme.
func (e *Engine) build(seed int64, gen uint64) (*state, error) {
	nw, err := e.cfg.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("server: build network: %w", err)
	}
	st := newState(nw, seed, gen)
	subs, err := buildSubstrates(e.cfg.Schemes, nw.Graph(), nw.Distancer(), e.cfg.Eps)
	if err != nil {
		return nil, err
	}
	// Schemes compile independently (shared graph/oracle/substrates are
	// read-only), so the whole set builds in parallel on startup and
	// /reload; the ordered MapErr keeps compile order — and any error —
	// identical to the serial loop it replaced.
	compiled, err := par.MapErr(len(e.cfg.Schemes), func(i int) (*scheme, error) {
		name := e.cfg.Schemes[i]
		s, err := compileScheme(name, nw.Graph(), nw.Distancer(), e.cfg.Eps, seed, subs, e.chaos)
		if err != nil {
			return nil, fmt.Errorf("server: compile %s: %w", name, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range compiled {
		st.add(s)
	}
	return st, nil
}

// substrateKey names one labeled substrate: its kind and clamped eps.
type substrateKey struct {
	scaleFree bool
	eps       float64
}

// substrate is one built labeled scheme and its build time.
type substrate struct {
	impl   nameind.Underlying
	millis float64
}

// substrateOf returns the labeled scheme a served scheme is, or is
// built over, at the engine's eps (ok false for the baselines). The
// clamps are the schemes' eps ranges: simple-labeled takes eps up to
// 1/2, its name-independent use up to 1/3, and both scale-free schemes
// up to 1/4.
func substrateOf(name string, eps float64) (substrateKey, bool) {
	switch name {
	case "simple-labeled":
		return substrateKey{false, clamp(eps, 0.5)}, true
	case "name-independent":
		return substrateKey{false, clamp(eps, 1.0/3)}, true
	case "scale-free-labeled", "scale-free-name-independent":
		return substrateKey{true, clamp(eps, 0.25)}, true
	}
	return substrateKey{}, false
}

// buildSubstrates builds, once each and in parallel, the labeled
// schemes the configured schemes are or stand on. A labeled scheme and
// the name-independent scheme over it then share one read-only build:
// at eps = 0.25 that is one labeled.Simple and one labeled.ScaleFree
// instead of two of each. (At eps in (1/3, 1/2] the two Simple clamps
// differ, and so do the builds.)
func buildSubstrates(names []string, g *graph.Graph, a metric.Distancer, eps float64) (map[substrateKey]substrate, error) {
	var keys []substrateKey
	seen := map[substrateKey]bool{}
	for _, name := range names {
		if k, ok := substrateOf(name, eps); ok && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	built, err := par.MapErr(len(keys), func(i int) (substrate, error) {
		start := time.Now()
		var (
			impl nameind.Underlying
			err  error
		)
		if keys[i].scaleFree {
			impl, err = labeled.NewScaleFree(g, a, keys[i].eps)
		} else {
			impl, err = labeled.NewSimple(g, a, keys[i].eps)
		}
		if err != nil {
			return substrate{}, fmt.Errorf("server: build substrate %+v: %w", keys[i], err)
		}
		return substrate{impl: impl, millis: float64(time.Since(start).Microseconds()) / 1000}, nil
	})
	if err != nil {
		return nil, err
	}
	subs := make(map[substrateKey]substrate, len(keys))
	for i, k := range keys {
		subs[k] = built[i]
	}
	return subs, nil
}

// bind wraps a generic Router into the scheme's one runner. addr
// translates a destination NODE id into the scheme's address space (a
// label or an original name), so every scheme serves the same API.
// Every walk runs through sim.Walk: with nothing to record it is
// sim.RouteLite (no observer, no allocation); a path or a trace attaches
// sim's Recorder (sim.RouteOnceTraced); a chaos delivery id goes through
// faultsim.DeliverTraced, whose fault observer drives the same loop.
// Traced and untraced walks share one code path, so a traced route is
// byte-identical to an untraced one.
func bind[H sim.Header](g *graph.Graph, r sim.Router[H], addr func(int) int, maxHops int, ch *chaosRuntime) runner {
	return func(src, dst int, spec walkSpec) walkOut {
		switch {
		case spec.chaos != 0:
			res := faultsim.DeliverTraced(g, r, src, addr(dst), maxHops, ch.in, ch.rel, spec.chaos, spec.tr)
			out := shapeOf(res.Sim)
			out.attempts, out.drops = res.Attempts, res.Drops
			if !res.Delivered && out.Err == nil {
				out.Err = fmt.Errorf("delivery failed after %d attempts (%d packets dropped)", res.Attempts, res.Drops)
			}
			return out
		case spec.path || spec.tr != nil:
			return shapeOf(sim.RouteOnceTraced(g, r, src, addr(dst), maxHops, spec.tr))
		default:
			return walkOut{LiteResult: sim.RouteLite(g, r, src, addr(dst), maxHops)}
		}
	}
}

// shapeOf reads a path-carrying walk as a runner result.
func shapeOf(res sim.Result) walkOut {
	return walkOut{
		LiteResult: sim.LiteResult{
			Dst:           res.Dst,
			Hops:          len(res.Path) - 1,
			MaxHeaderBits: res.MaxHeaderBits,
			Cost:          res.Cost,
			Err:           res.Err,
		},
		path: res.Path,
	}
}

func clamp(eps, hi float64) float64 {
	if eps > hi {
		return hi
	}
	return eps
}

// compileScheme builds one scheme and its adapter-backed runner. Its
// build time includes the substrate it stands on, built or not.
func compileScheme(name string, g *graph.Graph, a metric.Distancer, eps float64, seed int64, subs map[substrateKey]substrate, ch *chaosRuntime) (*scheme, error) {
	start := time.Now()
	impl, err := buildScheme(name, g, a, eps, seed, subs)
	if err != nil {
		return nil, err
	}
	millis := float64(time.Since(start).Microseconds()) / 1000
	if k, ok := substrateOf(name, eps); ok {
		millis += subs[k].millis
	}
	return finishScheme(name, impl, g, ch, millis)
}

// buildScheme constructs one scheme implementation — with buildSubstrates,
// the only place in the serving layer that invokes the (counted) scheme
// constructors. The labeled schemes are their substrates, and the
// name-independent ones are built over theirs. The snapshot path
// replaces this call with snapshot.DecodeScheme and shares everything
// after it.
func buildScheme(name string, g *graph.Graph, a metric.Distancer, eps float64, seed int64, subs map[substrateKey]substrate) (any, error) {
	n := g.N()
	k, _ := substrateOf(name, eps)
	switch name {
	case "simple-labeled", "scale-free-labeled":
		return subs[k].impl, nil
	case "name-independent":
		return nameind.NewSimple(g, a, nameind.RandomNaming(n, seed+2), subs[k].impl, k.eps)
	case "scale-free-name-independent":
		return nameind.NewScaleFree(g, a, nameind.RandomNaming(n, seed+2), subs[k].impl, k.eps)
	case "full-table":
		return baseline.NewFullTable(g, a), nil
	case "single-tree":
		return baseline.NewSingleTree(g, 0)
	default:
		return nil, fmt.Errorf("unknown scheme %q (have %v)", name, SchemeNames)
	}
}

// finishScheme wraps a concrete scheme implementation (freshly built or
// snapshot-restored) into its runners and accounting. The hop budgets
// mirror cmd/routesim's per-scheme limits.
func finishScheme(name string, impl any, g *graph.Graph, ch *chaosRuntime, buildMillis float64) (*scheme, error) {
	n := g.N()
	var (
		run       runner
		kind      string
		labelBits int
		tableBits func(int) int
	)
	identity := func(v int) int { return v }
	switch s := impl.(type) {
	case *labeled.Simple:
		run = bind(g, sim.SimpleLabeledRouter{S: s}, s.LabelOf, 0, ch)
		kind, labelBits, tableBits = "labeled", bits.UintBits(n), s.TableBits
	case *labeled.ScaleFree:
		run = bind(g, sim.ScaleFreeLabeledRouter{S: s}, s.LabelOf, 64*n, ch)
		kind, labelBits, tableBits = "labeled", bits.UintBits(n), s.TableBits
	case *nameind.Simple:
		nm := s.Naming()
		run = bind(g, sim.NameIndependentRouter{S: s}, nm.NameOf, 256*n, ch)
		kind, labelBits, tableBits = "name-independent", bits.UintBits(nm.MaxName()+1), s.TableBits
	case *nameind.ScaleFree:
		nm := s.Naming()
		run = bind(g, sim.ScaleFreeNameIndependentRouter{S: s}, nm.NameOf, 512*n, ch)
		kind, labelBits, tableBits = "name-independent", bits.UintBits(nm.MaxName()+1), s.TableBits
	case *baseline.FullTable:
		run = bind(g, sim.FullTableRouter{S: s}, identity, 0, ch)
		kind, labelBits, tableBits = "baseline", bits.UintBits(n), s.TableBits
	case *baseline.SingleTree:
		run = bind(g, sim.SingleTreeRouter{S: s}, identity, 0, ch)
		kind, labelBits, tableBits = "baseline", bits.UintBits(n), s.TableBits
	default:
		return nil, fmt.Errorf("scheme %q has unbindable implementation %T", name, impl)
	}
	tb := core.Tables(tableBits, n)
	return &scheme{
		info: SchemeInfo{
			Name:          name,
			Kind:          kind,
			LabelBits:     labelBits,
			TableMaxBits:  tb.MaxBits,
			TableMeanBits: tb.MeanBits,
			TableTotal:    tb.TotalBits,
			BuildMillis:   buildMillis,
		},
		impl: impl,
		run:  run,
	}, nil
}

// Route answers one query, consulting the cache first. The result is
// returned by value so callers may set Cached without racing the cached
// copy; Path is shared and must not be mutated.
func (e *Engine) Route(schemeName string, src, dst int) (RouteResult, error) {
	return e.route(schemeName, src, dst, false)
}

// RouteTraced answers one query with its full execution trace attached
// (RouteResult.Trace, hop log capped by Config.TraceHopCap). Traced
// queries always execute the route — the cache is read-bypassed so the
// hop log describes a real walk — but the computed result still feeds
// the cache for later untraced queries.
func (e *Engine) RouteTraced(schemeName string, src, dst int) (RouteResult, error) {
	return e.route(schemeName, src, dst, true)
}

// sampleTrace implements the deterministic 1-in-N sampler: route
// queries are numbered by an atomic counter and every Nth one runs
// traced. Under sequential load the sampled set is a pure function of
// request order (the 1st, N+1st, 2N+1st, ... queries); concurrent
// load keeps the exact 1/N rate but the assignment follows arrival
// order at the counter.
func (e *Engine) sampleTrace() bool {
	if e.traceSample <= 0 {
		return false
	}
	return (e.traceSeq.Add(1)-1)%uint64(e.traceSample) == 0
}

func (e *Engine) route(schemeName string, src, dst int, wantTrace bool) (RouteResult, error) {
	st := e.st.Load()
	idx, ok := st.index[schemeName]
	if !ok {
		return RouteResult{}, fmt.Errorf("unknown scheme %q (have %v)", schemeName, st.order)
	}
	n := st.nw.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return RouteResult{}, fmt.Errorf("pair (%d, %d) out of range [0, %d)", src, dst, n)
	}
	a, err := e.answer(st, idx, src, dst, true, wantTrace)
	if err != nil {
		return RouteResult{}, fmt.Errorf("route %d -> %d: %w", src, dst, err)
	}
	out := RouteResult{
		Scheme:        schemeName,
		Src:           src,
		Dst:           dst,
		Path:          a.path,
		Hops:          int(a.hops),
		Cost:          a.cost,
		Optimal:       a.optimal,
		Stretch:       stretch(a.cost, a.optimal),
		MaxHeaderBits: int(a.maxHeaderBits),
		Cached:        a.cached,
		Attempts:      a.attempts,
		Drops:         a.drops,
	}
	if wantTrace {
		out.Trace = a.tr.ToWire(a.optimal, e.traceHopCap)
	}
	return out, nil
}

// answered is one query's answer: the route, whether the cache served
// it, the trace when the walk was traced, and the reliability layer's
// work under fault injection.
type answered struct {
	route
	cached          bool
	tr              *trace.Trace
	attempts, drops int
}

// answer serves one query on scheme idx for both planes: from the
// cache when the slot holds what the query needs (the path, for
// needPath), otherwise by one walk whose result refills the slot. A
// traced query (asked for, or picked by the 1-in-N sampler) bypasses
// the cache read but still feeds the cache; a chaos query bypasses the
// cache entirely, since every query draws its own faults (a fresh
// delivery id), so two queries for the same pair legitimately differ
// in attempts, drops and even outcome. An untraced, fault-free answer
// allocates only what its walk records: nothing for the frame plane,
// the path for HTTP.
func (e *Engine) answer(st *state, idx, src, dst int, needPath, wantTrace bool) (answered, error) {
	sampled := e.sampleTrace()
	spec := walkSpec{path: needPath}
	if wantTrace || sampled {
		//determinlint:allow hotpath traced queries allocate their hop log: tracing is off in the pinned zero-alloc configuration
		spec.tr = &trace.Trace{}
	}
	if e.chaos != nil {
		spec.chaos = e.chaos.seq.Add(1)
	} else if spec.tr == nil {
		if v, ok := e.cache.get(idx, src, dst, st.gen, needPath); ok {
			return answered{route: v, cached: true}, nil
		}
	}
	s := st.list[idx]
	out := s.run(src, dst, spec)
	if e.chaos != nil {
		e.met.observeChaos(out.attempts, out.drops, out.Err != nil)
	}
	if out.Err != nil {
		return answered{}, out.Err
	}
	a := answered{
		route: route{
			hops:          int32(out.Hops),
			maxHeaderBits: int32(out.MaxHeaderBits),
			cost:          out.Cost,
			optimal:       st.nw.Dist(src, dst),
			path:          out.path,
		},
		tr:       spec.tr,
		attempts: out.attempts,
		drops:    out.drops,
	}
	e.met.observeRoute(s.info.Name, stretch(a.cost, a.optimal), out.Hops, out.MaxHeaderBits)
	if sampled {
		e.met.observeTrace(spec.tr)
	}
	// The cache never holds a trace: cached routes are shared between
	// responses, and a trace belongs to the query that asked.
	if e.chaos == nil {
		e.cache.put(idx, src, dst, st.gen, a.route)
	}
	return a, nil
}

func stretch(cost, opt float64) float64 {
	if opt == 0 {
		return 1
	}
	return cost / opt
}

// BatchSummary aggregates one RouteBatch call.
type BatchSummary struct {
	Count       int     `json:"count"`
	Errors      int     `json:"errors"`
	CacheHits   int     `json:"cache_hits"`
	TotalHops   int     `json:"total_hops"`
	MeanStretch float64 `json:"mean_stretch"`
	MaxStretch  float64 `json:"max_stretch"`
}

// RouteBatch fans the pairs out over the bounded worker pool and
// returns per-pair results (index-aligned with pairs; failed queries
// have an empty Scheme and count as summary errors).
func (e *Engine) RouteBatch(schemeName string, pairs [][2]int) ([]RouteResult, BatchSummary) {
	results := make([]RouteResult, len(pairs))
	errs := make([]error, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				results[i], errs[i] = e.Route(schemeName, pairs[i][0], pairs[i][1])
			}
		}()
	}
	wg.Wait()

	var sum BatchSummary
	sum.Count = len(pairs)
	var stretchSum float64
	routed := 0
	for i := range results {
		if errs[i] != nil {
			sum.Errors++
			continue
		}
		routed++
		if results[i].Cached {
			sum.CacheHits++
		}
		sum.TotalHops += results[i].Hops
		stretchSum += results[i].Stretch
		if results[i].Stretch > sum.MaxStretch {
			sum.MaxStretch = results[i].Stretch
		}
	}
	if routed > 0 {
		sum.MeanStretch = stretchSum / float64(routed)
	}
	return results, sum
}

// Reload rebuilds the network with the given seed, recompiles every
// scheme and atomically swaps the serving state. The new state carries
// a new generation, which invalidates every cached route: cache keys
// include the generation, so entries computed against the old graph
// are unreachable and are overwritten as new routes land in their
// slots. In-flight queries finish against the old state.
func (e *Engine) Reload(seed int64) error {
	e.reload.Lock()
	defer e.reload.Unlock()
	old := e.st.Load()
	st, err := e.build(seed, old.gen+1)
	if err != nil {
		return err
	}
	e.st.Store(st)
	e.met.reloads.Add(1)
	return nil
}

// Graph describes the current network.
func (e *Engine) Graph() GraphInfo {
	st := e.st.Load()
	return GraphInfo{
		Nodes:              st.nw.N(),
		Edges:              st.nw.M(),
		Seed:               st.seed,
		Generation:         st.gen,
		Diameter:           st.nw.Diameter(),
		NormalizedDiameter: st.nw.NormalizedDiameter(),
	}
}

// Schemes lists the compiled schemes' accounting in compile order.
func (e *Engine) Schemes() []SchemeInfo {
	st := e.st.Load()
	out := make([]SchemeInfo, 0, len(st.list))
	for _, s := range st.list {
		out = append(out, s.info)
	}
	return out
}

// Metrics snapshots the live counters.
func (e *Engine) Metrics() MetricsSnapshot {
	st := e.st.Load()
	snap := e.met.snapshot(e.cache)
	if e.chaos != nil {
		snap.Chaos.Enabled = true
		snap.Chaos.Loss = e.chaos.in.Plan().Loss
		snap.Chaos.MaxAttempts = e.chaos.rel.MaxAttempts
	}
	snap.Generation = st.gen
	snap.Schemes = append([]string(nil), st.order...)
	sort.Strings(snap.Schemes)
	snap.Trace.SampleEvery = e.traceSample
	return snap
}
