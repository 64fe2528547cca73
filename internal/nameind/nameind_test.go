package nameind

import (
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/labeled"
	"compactrouting/internal/metric"
)

type fixture struct {
	g *graph.Graph
	a *metric.APSP
}

func geoFixture(t *testing.T, n int, seed int64) fixture {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{g: g, a: metric.NewAPSP(g)}
}

func newSimpleScheme(t *testing.T, f fixture, nm *Naming, eps float64) *Simple {
	t.Helper()
	under, err := labeled.NewSimple(f.g, f.a, eps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimple(f.g, f.a, nm, under, eps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newScaleFreeScheme(t *testing.T, f fixture, nm *Naming, eps float64) *ScaleFree {
	t.Helper()
	under, err := labeled.NewScaleFree(f.g, f.a, eps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScaleFree(f.g, f.a, nm, under, eps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkAllPairs(t *testing.T, s core.NameIndependentScheme, f fixture, bound float64) core.StretchStats {
	t.Helper()
	stats, err := core.EvaluateNameIndependent(s, f.a, core.AllPairs(f.g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Max > bound {
		t.Fatalf("%s: max stretch %.3f exceeds bound %.3f", s.SchemeName(), stats.Max, bound)
	}
	return stats
}

func TestNamingValidation(t *testing.T) {
	if _, err := NewNaming([]int{0, 0, 2}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewNaming([]int{0, -3}); err == nil {
		t.Fatal("negative name accepted")
	}
	// Sparse names (beyond [0, n)) are legal: the model allows any
	// distinct identifiers.
	nm, err := NewNaming([]int{2, 1 << 40, 1})
	if err != nil {
		t.Fatal(err)
	}
	if nm.NameOf(0) != 2 || nm.NodeOf(2) != 0 {
		t.Fatal("naming lookup broken")
	}
	if nm.NodeOf(1<<40) != 1 {
		t.Fatal("sparse name lookup broken")
	}
	if nm.NodeOf(99) != -1 || nm.NodeOf(-1) != -1 {
		t.Fatal("bad name lookup should return -1")
	}
	if nm.MaxName() != 1<<40 {
		t.Fatalf("MaxName = %d", nm.MaxName())
	}
}

func TestSparseRandomNaming(t *testing.T) {
	nm, err := SparseRandomNaming(50, 1<<30, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for v := 0; v < 50; v++ {
		name := nm.NameOf(v)
		if name < 0 || name >= 1<<30 || seen[name] {
			t.Fatalf("bad sparse name %d", name)
		}
		seen[name] = true
		if nm.NodeOf(name) != v {
			t.Fatalf("inverse broken at %d", v)
		}
	}
	if _, err := SparseRandomNaming(50, 10, 1); err == nil {
		t.Fatal("space smaller than n accepted")
	}
}

func TestSchemesWithSparseNames(t *testing.T) {
	// DHT-style 2^40 identifier space: routing by name must still work
	// and headers must account for the wider name fields.
	f := geoFixture(t, 60, 12)
	nm, err := SparseRandomNaming(f.g.N(), 1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	under, err := labeled.NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimple(f.g, f.a, nm, under, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.SamplePairs(f.g.N(), 80, 2) {
		r, err := s.RouteToName(p[0], nm.NameOf(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if r.Dst != p[1] {
			t.Fatalf("sparse route ended at %d, want %d", r.Dst, p[1])
		}
		if r.MaxHeaderBits < 40 && r.Cost > 0 {
			t.Fatalf("header %d bits does not carry a 40-bit name", r.MaxHeaderBits)
		}
	}
}

func TestRandomNamingIsPermutation(t *testing.T) {
	nm := RandomNaming(100, 7)
	seen := make([]bool, 100)
	for v := 0; v < 100; v++ {
		name := nm.NameOf(v)
		if seen[name] {
			t.Fatalf("name %d repeated", name)
		}
		seen[name] = true
		if nm.NodeOf(name) != v {
			t.Fatalf("inverse broken at %d", v)
		}
	}
}

func TestSimpleDeliversAllPairs(t *testing.T) {
	f := geoFixture(t, 80, 1)
	nm := RandomNaming(f.g.N(), 42)
	s := newSimpleScheme(t, f, nm, 0.25)
	stats := checkAllPairs(t, s, f, s.StretchBound())
	t.Logf("nameind/simple eps=0.25: max=%.3f mean=%.3f p99=%.3f hdr=%db (bound %.1f)",
		stats.Max, stats.Mean, stats.P99, stats.MaxHeader, s.StretchBound())
}

func TestSimpleOnGridWithHoles(t *testing.T) {
	g, _, err := graph.GridWithHoles(10, 10, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := fixture{g: g, a: metric.NewAPSP(g)}
	nm := RandomNaming(f.g.N(), 3)
	s := newSimpleScheme(t, f, nm, 1.0/3)
	checkAllPairs(t, s, f, s.StretchBound())
}

func TestSimpleAdversarialNaming(t *testing.T) {
	// Reverse naming (correlated with ids) must work identically: the
	// scheme may not assume anything about names.
	f := geoFixture(t, 60, 2)
	rev := make([]int, f.g.N())
	for i := range rev {
		rev[i] = f.g.N() - 1 - i
	}
	nm, err := NewNaming(rev)
	if err != nil {
		t.Fatal(err)
	}
	s := newSimpleScheme(t, f, nm, 0.25)
	checkAllPairs(t, s, f, s.StretchBound())
}

func TestSimpleRejectsBadInputs(t *testing.T) {
	f := geoFixture(t, 30, 3)
	nm := identityNaming(f.g.N())
	under, err := labeled.NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimple(f.g, f.a, nm, under, 0.5); err == nil {
		t.Fatal("eps=0.5 accepted")
	}
	if _, err := NewSimple(f.g, f.a, identityNaming(5), under, 0.25); err == nil {
		t.Fatal("mismatched naming accepted")
	}
	s, err := NewSimple(f.g, f.a, nm, under, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RouteToName(0, -1); err == nil {
		t.Fatal("negative name accepted")
	}
	if _, err := s.RouteToName(0, f.g.N()); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestSimpleSelfRoute(t *testing.T) {
	f := geoFixture(t, 40, 4)
	nm := RandomNaming(f.g.N(), 1)
	s := newSimpleScheme(t, f, nm, 0.25)
	r, err := s.RouteToName(5, nm.NameOf(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Fatalf("self route cost %v (search at level 0 should find self immediately)", r.Cost)
	}
}

func TestScaleFreeDeliversAllPairs(t *testing.T) {
	f := geoFixture(t, 80, 5)
	nm := RandomNaming(f.g.N(), 9)
	s := newScaleFreeScheme(t, f, nm, 0.25)
	stats := checkAllPairs(t, s, f, s.StretchBound())
	if stats.Fallbacks != 0 {
		t.Fatalf("fallbacks: %d", stats.Fallbacks)
	}
	t.Logf("nameind/scale-free eps=0.25: max=%.3f mean=%.3f p99=%.3f hdr=%db own=%d delegated=%d",
		stats.Max, stats.Mean, stats.P99, stats.MaxHeader, s.OwnTreeCount(), s.DelegatedCount())
}

func TestScaleFreeDelegates(t *testing.T) {
	// The point of Theorem 1.1: most zooming balls must delegate to
	// packing balls rather than keep their own tree.
	f := geoFixture(t, 120, 6)
	nm := RandomNaming(f.g.N(), 2)
	s := newScaleFreeScheme(t, f, nm, 0.25)
	if s.DelegatedCount() == 0 {
		t.Fatal("no zooming ball delegated")
	}
	t.Logf("own=%d delegated=%d", s.OwnTreeCount(), s.DelegatedCount())
}

func TestScaleFreeOnExponentialStar(t *testing.T) {
	g, err := graph.ExponentialStar(50, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fixture{g: g, a: metric.NewAPSP(g)}
	nm := RandomNaming(f.g.N(), 8)
	s := newScaleFreeScheme(t, f, nm, 0.25)
	checkAllPairs(t, s, f, s.StretchBound())
}

func TestScaleFreeScaleFreedom(t *testing.T) {
	// Storage must not scale with Delta: compare a unit path to an
	// exponential path of equal size.
	unit, err := graph.Path(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := graph.ExponentialPath(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	fu := fixture{g: unit, a: metric.NewAPSP(unit)}
	fe := fixture{g: expo, a: metric.NewAPSP(expo)}
	su := newScaleFreeScheme(t, fu, identityNaming(64), 0.25)
	se := newScaleFreeScheme(t, fe, identityNaming(64), 0.25)
	tu := core.Tables(su.TableBits, 64)
	te := core.Tables(se.TableBits, 64)
	if ratio := float64(te.MaxBits) / float64(tu.MaxBits); ratio > 4 {
		t.Fatalf("scale-free nameind tables grew %.1fx with Delta (unit=%d expo=%d)",
			ratio, tu.MaxBits, te.MaxBits)
	}
	// The simple scheme, by contrast, must grow markedly.
	ssu := newSimpleScheme(t, fu, identityNaming(64), 0.25)
	sse := newSimpleScheme(t, fe, identityNaming(64), 0.25)
	tsu := core.Tables(ssu.TableBits, 64)
	tse := core.Tables(sse.TableBits, 64)
	if tse.MaxBits <= tsu.MaxBits {
		t.Fatalf("simple nameind tables did not grow with Delta (%d vs %d)",
			tse.MaxBits, tsu.MaxBits)
	}
}

func TestScaleFreeRequiresPackingProvider(t *testing.T) {
	f := geoFixture(t, 30, 7)
	under, err := labeled.NewSimple(f.g, f.a, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScaleFree(f.g, f.a, identityNaming(f.g.N()), under, 0.25); err == nil {
		t.Fatal("accepted an underlying scheme without a packing")
	}
}

func TestBothSchemesAgreeOnDelivery(t *testing.T) {
	f := geoFixture(t, 70, 8)
	nm := RandomNaming(f.g.N(), 4)
	simple := newSimpleScheme(t, f, nm, 0.25)
	free := newScaleFreeScheme(t, f, nm, 0.25)
	for _, p := range core.SamplePairs(f.g.N(), 100, 3) {
		name := nm.NameOf(p[1])
		r1, err := simple.RouteToName(p[0], name)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := free.RouteToName(p[0], name)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Dst != p[1] || r2.Dst != p[1] {
			t.Fatalf("schemes disagree on destination for %v", p)
		}
	}
}

// identityNaming names every node by its id.
func identityNaming(n int) *Naming {
	names := make([]int, n)
	for i := range names {
		names[i] = i
	}
	nm, _ := NewNaming(names)
	return nm
}
