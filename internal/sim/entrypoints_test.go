package sim_test

import (
	"errors"
	"math"
	"testing"

	"compactrouting/internal/baseline"
	"compactrouting/internal/faultsim"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
	"compactrouting/internal/nameind"
	"compactrouting/internal/sim"
)

// entry is one delivery as one entry point reports it, read as a walk
// shape; walked reports a recorded path (RouteLite records none).
type entry struct {
	name   string
	shape  sim.LiteResult
	walked bool
}

// entryPoints drives one delivery through every entry point of the single
// walk: RouteOnce, the concurrent Run, RouteLite, and faultsim.Deliver
// under a zero plan and a single attempt.
func entryPoints[H sim.Header](t *testing.T, g *graph.Graph, r sim.Router[H], src, dst, maxHops int) []entry {
	t.Helper()
	fromPath := func(name string, res sim.Result) entry {
		e := entry{name: name, walked: res.Path != nil}
		e.shape = sim.LiteResult{Dst: res.Dst, MaxHeaderBits: res.MaxHeaderBits, Cost: res.Cost, Err: res.Err}
		if e.walked {
			e.shape.Hops = len(res.Path) - 1
		}
		return e
	}
	lite := sim.RouteLite(g, r, src, dst, maxHops)
	fs := faultsim.Deliver(g, r, src, dst, maxHops, faultsim.NewInjector(faultsim.FaultPlan{}), faultsim.Reliability{}, 0)
	if fs.Attempts != 1 || fs.Drops != 0 || fs.Delivered != (fs.Sim.Err == nil) {
		t.Fatalf("zero-plan Deliver %d->%d: %+v", src, dst, fs)
	}
	return []entry{
		{name: "RouteLite", shape: lite},
		fromPath("RouteOnce", sim.RouteOnce(g, r, src, dst, maxHops)),
		fromPath("Run", sim.Run(g, r, []sim.Delivery{{Src: src, Dst: dst}}, maxHops)[0]),
		fromPath("faultsim.Deliver", fs.Sim),
	}
}

// sameOutcome fails unless every entry point reports the same shape as
// the first one, bit for bit, with the same error text.
func sameOutcome(t *testing.T, what string, es []entry) {
	t.Helper()
	ref := es[0]
	for _, e := range es[1:] {
		a, b := ref.shape, e.shape
		if a.Dst != b.Dst || a.Hops != b.Hops || a.MaxHeaderBits != b.MaxHeaderBits ||
			math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || errText(a.Err) != errText(b.Err) {
			t.Errorf("%s: %s %+v, %s %+v", what, ref.name, a, e.name, b)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func geoFixtures(t *testing.T, n int, seed int64) (*graph.Graph, *metric.APSP) {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, metric.NewAPSP(g)
}

// TestHopBudgetBoundaryAligned pins the hop-budget semantics of the one
// walk through every entry point with one table: a walk of exactly
// maxHops hops (plus the free arrival step) delivers; one more hop
// fails, at every entry point, with the identical HopLimitError and the
// identical partial walk.
func TestHopBudgetBoundaryAligned(t *testing.T) {
	g, err := graph.Path(9, 1) // 0-1-...-8, route 0->k takes exactly k hops
	if err != nil {
		t.Fatal(err)
	}
	r := sim.FullTableRouter{S: baseline.NewFullTable(g, metric.NewAPSP(g))}
	cases := []struct {
		dst, maxHops int
		ok           bool
	}{
		{1, 1, true},
		{4, 4, true},
		{4, 3, false},
		{8, 8, true},
		{8, 7, false},
		{8, 1, false},
	}
	for _, c := range cases {
		es := entryPoints[baseline.Destination](t, g, r, 0, c.dst, c.maxHops)
		sameOutcome(t, "hop budget", es)
		for _, e := range es {
			if (e.shape.Err == nil) != c.ok {
				t.Errorf("%s 0->%d maxHops=%d: err=%v, want ok=%v", e.name, c.dst, c.maxHops, e.shape.Err, c.ok)
			}
			if !c.ok && errText(e.shape.Err) != sim.HopLimitError(c.maxHops).Error() {
				t.Errorf("%s 0->%d maxHops=%d: error %q, want the hop-limit error", e.name, c.dst, c.maxHops, e.shape.Err)
			}
			want := c.dst
			if !c.ok {
				want = c.maxHops // the walk stops at its budget
			}
			if e.shape.Hops != want {
				t.Errorf("%s 0->%d maxHops=%d: %d hops, want %d", e.name, c.dst, c.maxHops, e.shape.Hops, want)
			}
		}
	}
}

// faulty wraps a router so that Step fails at node bad — or, with
// stray >= 0, forwards from bad to stray instead.
type faulty[H sim.Header] struct {
	sim.Router[H]
	bad, stray int
}

func (f faulty[H]) Step(node int, h H) (int, H, bool, error) {
	if node != f.bad {
		return f.Router.Step(node, h)
	}
	if f.stray >= 0 {
		return f.stray, h, false, nil
	}
	return 0, h, false, errors.New("injected step failure")
}

// TestStepErrorsAlignedAcrossEntryPoints pins the walk's Step-failure
// semantics: a Step error and a forward to a non-neighbour fail every
// entry point with the same error text and the same partial walk.
func TestStepErrorsAlignedAcrossEntryPoints(t *testing.T) {
	g, err := graph.Path(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.FullTableRouter{S: baseline.NewFullTable(g, metric.NewAPSP(g))}
	cases := []struct {
		stray int
		want  string
	}{
		{-1, "sim: step at 3: injected step failure"},
		{7, "sim: step at 3 forwarded to non-neighbor 7"},
	}
	for _, c := range cases {
		r := faulty[baseline.Destination]{Router: base, bad: 3, stray: c.stray}
		es := entryPoints[baseline.Destination](t, g, r, 0, 8, 0)
		sameOutcome(t, c.want, es)
		for _, e := range es {
			if errText(e.shape.Err) != c.want || e.shape.Hops != 3 || e.shape.Dst != 0 {
				t.Errorf("%s: %+v, want %q after 3 hops", e.name, e.shape, c.want)
			}
		}
	}
}

// TestRunPrepareErrorsAllAdapters exercises Prepare-error propagation
// for every adapter family through every entry point, and checks the
// failed delivery is reported alike everywhere — Err set, no walk —
// while a good delivery still succeeds.
func TestRunPrepareErrorsAllAdapters(t *testing.T) {
	g, a := geoFixtures(t, 50, 23)
	sl, err := labeled.NewSimple(g, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := labeled.NewScaleFree(g, a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm := nameind.RandomNaming(g.N(), 24)
	ni, err := nameind.NewSimple(g, a, nm, sl, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sfni, err := nameind.NewScaleFree(g, a, nm, sf, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	st, err := baseline.NewSingleTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft := baseline.NewFullTable(g, a)

	prepareErrors(t, "full-table", g, sim.FullTableRouter{S: ft}, -5, 1, 0)
	prepareErrors(t, "single-tree", g, sim.SingleTreeRouter{S: st}, g.N()+3, 1, 0)
	prepareErrors(t, "simple-labeled", g, sim.SimpleLabeledRouter{S: sl}, -1, sl.LabelOf(1), 0)
	prepareErrors(t, "scale-free-labeled", g, sim.ScaleFreeLabeledRouter{S: sf}, -2, sf.LabelOf(1), 64*g.N())
	prepareErrors(t, "name-independent", g, sim.NameIndependentRouter{S: ni}, -7, nm.NameOf(1), 256*g.N())
	prepareErrors(t, "scale-free-name-independent", g, sim.ScaleFreeNameIndependentRouter{S: sfni}, -9, nm.NameOf(1), 512*g.N())
}

func prepareErrors[H sim.Header](t *testing.T, name string, g *graph.Graph, r sim.Router[H], bad, good, maxHops int) {
	t.Helper()
	es := entryPoints(t, g, r, 0, bad, maxHops)
	sameOutcome(t, name+" prepare error", es)
	for _, e := range es {
		if e.shape.Err == nil {
			t.Errorf("%s %s: Prepare(%d) error did not propagate", name, e.name, bad)
		}
		if e.walked || e.shape.Dst != 0 || e.shape.Cost != 0 || e.shape.Hops != 0 {
			t.Errorf("%s %s: failed delivery carries a walk: %+v", name, e.name, e.shape)
		}
	}
	es = entryPoints(t, g, r, 0, good, maxHops)
	sameOutcome(t, name+" good delivery", es)
	for _, e := range es {
		if e.shape.Err != nil {
			t.Errorf("%s %s: good delivery failed: %v", name, e.name, e.shape.Err)
		}
	}
}
