package rnet

import (
	"math"
	"math/rand"
	"testing"

	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
)

func geoAPSP(t *testing.T, n int, seed int64) *metric.APSP {
	t.Helper()
	g, _, err := graph.RandomGeometric(n, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return metric.NewAPSP(g)
}

func checkNetProperties(t *testing.T, a *metric.APSP, net []int, r float64) {
	t.Helper()
	// Covering: every node within r of the net.
	for v := 0; v < a.N(); v++ {
		_, d := a.Nearest(v, net)
		if d > r {
			t.Fatalf("node %d at distance %v > r=%v from net", v, d, r)
		}
	}
	// Packing: net points pairwise >= r.
	for i := 0; i < len(net); i++ {
		for j := i + 1; j < len(net); j++ {
			if d := a.Dist(net[i], net[j]); d < r {
				t.Fatalf("net points %d,%d at distance %v < r=%v", net[i], net[j], d, r)
			}
		}
	}
}

func TestNetProperties(t *testing.T) {
	a := geoAPSP(t, 100, 2)
	for _, r := range []float64{1, 2, 5, a.Diameter() / 2} {
		net := Net(a, r, nil, nil)
		checkNetProperties(t, a, net, r)
	}
}

func TestNetWithSeed(t *testing.T) {
	a := geoAPSP(t, 80, 3)
	coarse := Net(a, 8, nil, nil)
	fine := Net(a, 4, coarse, nil)
	// Seed members must be preserved as a prefix.
	for i, v := range coarse {
		if fine[i] != v {
			t.Fatalf("seed member %d not preserved at %d", v, i)
		}
	}
	checkNetProperties(t, a, fine, 4)
}

func TestHierarchyNesting(t *testing.T) {
	a := geoAPSP(t, 150, 4)
	h := NewHierarchy(a, 0)
	if len(h.Levels[h.L]) != 1 || h.Levels[h.L][0] != 0 {
		t.Fatalf("top level = %v, want [0]", h.Levels[h.L])
	}
	if len(h.Levels[0]) != a.N() {
		t.Fatalf("Y_0 has %d nodes, want %d", len(h.Levels[0]), a.N())
	}
	member := make([]map[int]bool, h.L+1)
	for i := 0; i <= h.L; i++ {
		member[i] = make(map[int]bool, len(h.Levels[i]))
		for _, v := range h.Levels[i] {
			member[i][v] = true
		}
	}
	for i := 0; i < h.L; i++ {
		for v := range member[i+1] {
			if !member[i][v] {
				t.Fatalf("Y_%d member %d missing from Y_%d", i+1, v, i)
			}
		}
	}
	// Each level is a net of its radius.
	for i := 0; i <= h.L; i++ {
		checkNetProperties(t, a, h.Levels[i], h.Radius(i))
	}
	// InLevel/MaxLevel/PosInLevel agree with the level sets.
	for v := 0; v < a.N(); v++ {
		for i := 0; i <= h.L; i++ {
			want := member[i][v]
			if h.InLevel(v, i) != want {
				t.Fatalf("InLevel(%d,%d) = %v, want %v", v, i, h.InLevel(v, i), want)
			}
			if want && h.Levels[i][h.PosInLevel(v, i)] != v {
				t.Fatalf("PosInLevel(%d,%d) inconsistent", v, i)
			}
		}
		if ml := h.MaxLevel(v); !member[ml][v] || (ml < h.L && member[ml+1][v]) {
			t.Fatalf("MaxLevel(%d) = %d wrong", v, ml)
		}
	}
}

// zoom returns the full zooming sequence u(0..L) of u.
func zoom(h *Hierarchy, u int) []int {
	seq := make([]int, h.L+1)
	seq[0] = u
	for i := 0; i < h.L; i++ {
		seq[i+1] = h.ZoomStep(seq[i], i)
	}
	return seq
}

func TestZoomSequence(t *testing.T) {
	a := geoAPSP(t, 120, 5)
	h := NewHierarchy(a, 7)
	for v := 0; v < a.N(); v++ {
		seq := zoom(h, v)
		if seq[0] != v {
			t.Fatalf("zoom(%d)[0] = %d", v, seq[0])
		}
		if seq[h.L] != 7 {
			t.Fatalf("zoom(%d) does not end at root: %v", v, seq)
		}
		total := 0.0
		for i := 1; i <= h.L; i++ {
			if !h.InLevel(seq[i], i) {
				t.Fatalf("zoom(%d)[%d] = %d not in Y_%d", v, i, seq[i], i)
			}
			step := a.Dist(seq[i-1], seq[i])
			// Eqn (2): each step is at most the level radius.
			if step > h.Radius(i)+1e-9 {
				t.Fatalf("zoom step %d->%d at level %d is %v > %v", seq[i-1], seq[i], i, step, h.Radius(i))
			}
			// seq[i] must be the nearest Y_i node to seq[i-1] (ties by id).
			want, _ := a.Nearest(seq[i-1], h.Levels[i])
			if seq[i] != want {
				t.Fatalf("zoom(%d)[%d] = %d, nearest is %d", v, i, seq[i], want)
			}
			total += step
		}
		// Eqn (2): prefix sums < 2^{i+1} (scaled by base).
		if total > 2*h.Radius(h.L)+1e-9 {
			t.Fatalf("zoom(%d) total %v exceeds 2*Radius(L)=%v", v, total, 2*h.Radius(h.L))
		}
	}
}

func TestZoomStepPanicsOutsideHierarchy(t *testing.T) {
	a := geoAPSP(t, 50, 6)
	h := NewHierarchy(a, 0)
	// Find a node not in Y_L-1... use a node whose MaxLevel is 0 if any;
	// otherwise skip (tiny graphs may have all nodes high).
	for v := 0; v < a.N(); v++ {
		if h.MaxLevel(v) == 0 && h.L >= 2 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("ZoomStep(%d, 1) did not panic", v)
					}
				}()
				h.ZoomStep(v, 1)
			}()
			return
		}
	}
}

func TestRing(t *testing.T) {
	a := geoAPSP(t, 100, 7)
	h := NewHierarchy(a, 0)
	eps := 0.5
	for _, u := range []int{0, 13, 57} {
		for i := 0; i <= h.L; i++ {
			ring := h.Ring(u, i, eps)
			seen := make(map[int]bool, len(ring))
			for _, x := range ring {
				if !h.InLevel(x, i) {
					t.Fatalf("ring member %d not in Y_%d", x, i)
				}
				if a.Dist(u, x) > h.Radius(i)/eps {
					t.Fatalf("ring member %d too far", x)
				}
				seen[x] = true
			}
			for _, x := range h.Levels[i] {
				if a.Dist(u, x) <= h.Radius(i)/eps && !seen[x] {
					t.Fatalf("ring missing %d at level %d", x, i)
				}
			}
		}
	}
}

func TestRingSizeBound(t *testing.T) {
	// Lemma 2.2: |B_u(r/eps) ∩ Y_i| <= (4/eps)^alpha up to constants.
	// On a planar geometric graph with alpha ~ 3 and eps = 0.5 this is
	// generous; assert a loose but finite bound to catch blowups.
	a := geoAPSP(t, 300, 8)
	h := NewHierarchy(a, 0)
	for u := 0; u < a.N(); u += 17 {
		for i := 0; i <= h.L; i++ {
			if len(h.Ring(u, i, 0.5)) > 200 {
				t.Fatalf("ring (%d, %d) has %d members", u, i, len(h.Ring(u, i, 0.5)))
			}
		}
	}
}

func TestNettingTreeLabels(t *testing.T) {
	a := geoAPSP(t, 130, 9)
	h := NewHierarchy(a, 0)
	tr := NewNettingTree(h)
	// Labels are a permutation of [n].
	seen := make([]bool, a.N())
	for v := 0; v < a.N(); v++ {
		l := tr.Label(v)
		if l < 0 || l >= a.N() || seen[l] {
			t.Fatalf("bad label %d for node %d", l, v)
		}
		seen[l] = true
		if tr.NodeOfLabel(l) != v {
			t.Fatalf("NodeOfLabel(%d) = %d, want %d", l, tr.NodeOfLabel(l), v)
		}
	}
}

func TestNettingTreeRanges(t *testing.T) {
	a := geoAPSP(t, 130, 10)
	h := NewHierarchy(a, 0)
	tr := NewNettingTree(h)
	// The root's range covers everything.
	r, ok := tr.Range(h.Levels[h.L][0], h.L)
	if !ok || r.Lo != 0 || r.Hi != a.N()-1 {
		t.Fatalf("root range = %v,%v", r, ok)
	}
	// l(u) ∈ Range(x, i) iff u(i) = x — the central lookup invariant.
	for v := 0; v < a.N(); v++ {
		seq := zoom(h, v)
		for i := 0; i <= h.L; i++ {
			for _, x := range h.Levels[i] {
				rg, ok := tr.Range(x, i)
				if !ok {
					t.Fatalf("Range(%d,%d) missing", x, i)
				}
				want := seq[i] == x
				if rg.Contains(tr.Label(v)) != want {
					t.Fatalf("Range(%d,%d)=%v contains l(%d)=%d: want %v",
						x, i, rg, v, tr.Label(v), want)
				}
			}
		}
	}
	// Out-of-range queries.
	if _, ok := tr.Range(0, -1); ok {
		t.Fatal("Range(0,-1) ok")
	}
	if _, ok := tr.Range(0, h.L+5); ok {
		t.Fatal("Range beyond top ok")
	}
}

func TestNettingTreeSiblingRangesDisjoint(t *testing.T) {
	a := geoAPSP(t, 100, 11)
	h := NewHierarchy(a, 0)
	tr := NewNettingTree(h)
	for i := 0; i <= h.L; i++ {
		type iv struct{ lo, hi int }
		var ivs []iv
		for _, x := range h.Levels[i] {
			r, _ := tr.Range(x, i)
			if r.Lo > r.Hi {
				t.Fatalf("empty range for (%d,%d): netting tree nodes always have a leaf below", x, i)
			}
			ivs = append(ivs, iv{r.Lo, r.Hi})
		}
		for j := 0; j < len(ivs); j++ {
			for k := j + 1; k < len(ivs); k++ {
				if ivs[j].lo <= ivs[k].hi && ivs[k].lo <= ivs[j].hi {
					t.Fatalf("level %d ranges overlap: %v %v", i, ivs[j], ivs[k])
				}
			}
		}
	}
}

func TestHierarchyOnUnitPath(t *testing.T) {
	g, err := graph.Path(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	h := NewHierarchy(a, 0)
	if h.Base() != 1 {
		t.Fatalf("base = %v, want 1", h.Base())
	}
	if h.TopLevel() != int(math.Ceil(math.Log2(15))) {
		t.Fatalf("L = %d", h.TopLevel())
	}
}

func TestHierarchySingleNode(t *testing.T) {
	g, err := graph.NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := metric.NewAPSP(g)
	h := NewHierarchy(a, 0)
	if h.TopLevel() != 0 || len(h.Levels[0]) != 1 {
		t.Fatalf("degenerate hierarchy wrong: L=%d", h.TopLevel())
	}
	tr := NewNettingTree(h)
	if tr.Label(0) != 0 {
		t.Fatalf("label = %d", tr.Label(0))
	}
}

func TestHierarchyDeterministic(t *testing.T) {
	a := geoAPSP(t, 90, 12)
	h1 := NewHierarchy(a, 0)
	h2 := NewHierarchy(a, 0)
	for i := 0; i <= h1.L; i++ {
		if len(h1.Levels[i]) != len(h2.Levels[i]) {
			t.Fatalf("level %d sizes differ", i)
		}
		for k := range h1.Levels[i] {
			if h1.Levels[i][k] != h2.Levels[i][k] {
				t.Fatalf("level %d differs at %d", i, k)
			}
		}
	}
}

func TestNetRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		g, _, err := graph.RandomGeometric(60+rng.Intn(60), 0.25, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		a := metric.NewAPSP(g)
		r := a.Diameter() * (0.1 + rng.Float64()*0.5)
		net := Net(a, r, nil, nil)
		checkNetProperties(t, a, net, r)
	}
}
