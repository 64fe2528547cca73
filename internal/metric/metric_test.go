package metric

import (
	"math"
	"math/rand"
	"testing"

	"compactrouting/internal/graph"
)

func mustGrid(t *testing.T, r, c int) *graph.Graph {
	t.Helper()
	g, err := graph.Grid(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathTo returns the node sequence of the tree path from v to the
// source of t (inclusive on both ends).
func pathTo(t *SPT, v int) []int {
	var path []int
	for v != -1 {
		path = append(path, v)
		v = t.Parent[v]
	}
	return path
}

func TestDijkstraGrid(t *testing.T) {
	g := mustGrid(t, 4, 4)
	spt := Dijkstra(g, 0)
	// Distance on a unit grid is Manhattan distance.
	for v := 0; v < g.N(); v++ {
		want := float64(v/4 + v%4)
		if spt.Dist[v] != want {
			t.Errorf("dist(0,%d) = %v, want %v", v, spt.Dist[v], want)
		}
	}
	if spt.Parent[0] != -1 {
		t.Fatalf("source parent = %d, want -1", spt.Parent[0])
	}
	// Walking parents from any node must reach the source with
	// decreasing distance.
	for v := 1; v < g.N(); v++ {
		path := pathTo(spt, v)
		if path[len(path)-1] != 0 {
			t.Fatalf("PathTo(%d) does not end at source: %v", v, path)
		}
		for i := 0; i+1 < len(path); i++ {
			w, ok := g.EdgeWeight(path[i], path[i+1])
			if !ok {
				t.Fatalf("PathTo(%d) uses non-edge %d-%d", v, path[i], path[i+1])
			}
			if math.Abs(spt.Dist[path[i]]-spt.Dist[path[i+1]]-w) > 1e-9 {
				t.Fatalf("PathTo(%d): edge %d-%d not on shortest path", v, path[i], path[i+1])
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle where the two-hop route is shorter than the direct edge.
	b := graph.NewBuilder(3)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spt := Dijkstra(g, 0)
	if spt.Dist[2] != 2 {
		t.Fatalf("dist(0,2) = %v, want 2", spt.Dist[2])
	}
	if spt.Parent[2] != 1 {
		t.Fatalf("parent(2) = %d, want 1", spt.Parent[2])
	}
}

func TestAPSPAgreesWithDijkstra(t *testing.T) {
	g, _, err := graph.RandomGeometric(120, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPSP(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		s := rng.Intn(g.N())
		spt := Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if math.Abs(a.Dist(v, s)-spt.Dist[v]) > 1e-9 {
				t.Fatalf("Dist(%d,%d) = %v, Dijkstra says %v", v, s, a.Dist(v, s), spt.Dist[v])
			}
		}
	}
}

func TestAPSPSymmetric(t *testing.T) {
	g, _, err := graph.RandomGeometric(80, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPSP(g)
	for u := 0; u < a.N(); u++ {
		for v := u + 1; v < a.N(); v++ {
			if math.Abs(a.Dist(u, v)-a.Dist(v, u)) > 1e-9 {
				t.Fatalf("asymmetric: d(%d,%d)=%v d(%d,%d)=%v", u, v, a.Dist(u, v), v, u, a.Dist(v, u))
			}
		}
	}
}

func TestNextHopMakesProgress(t *testing.T) {
	g := mustGrid(t, 5, 5)
	a := NewAPSP(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				if a.NextHop(u, v) != -1 {
					t.Fatalf("NextHop(%d,%d) = %d, want -1", u, v, a.NextHop(u, v))
				}
				continue
			}
			h := a.NextHop(u, v)
			w, ok := g.EdgeWeight(u, h)
			if !ok {
				t.Fatalf("NextHop(%d,%d) = %d is not a neighbor", u, v, h)
			}
			if math.Abs(w+a.Dist(h, v)-a.Dist(u, v)) > 1e-9 {
				t.Fatalf("NextHop(%d,%d) = %d is not on a shortest path", u, v, h)
			}
		}
	}
}

func TestOrderAndRadii(t *testing.T) {
	g := mustGrid(t, 4, 4)
	a := NewAPSP(g)
	for u := 0; u < g.N(); u++ {
		if a.Kth(u, 0) != u {
			t.Fatalf("Kth(%d,0) = %d, want self", u, a.Kth(u, 0))
		}
		prev := -1.0
		for k := 0; k < g.N(); k++ {
			d := a.Dist(u, a.Kth(u, k))
			if d < prev {
				t.Fatalf("order of %d not sorted at k=%d", u, k)
			}
			prev = d
		}
	}
	// Corner node 0 of a 4x4 grid: sizes 1,2,3 are at distances 0,1,1.
	if r := a.RadiusOfSize(0, 1); r != 0 {
		t.Fatalf("RadiusOfSize(0,1) = %v, want 0", r)
	}
	if r := a.RadiusOfSize(0, 3); r != 1 {
		t.Fatalf("RadiusOfSize(0,3) = %v, want 1", r)
	}
	if r := a.RadiusOfSize(0, 100); r != a.Dist(0, 15) {
		t.Fatalf("RadiusOfSize clamps to n: got %v", r)
	}
}

func TestBallConsistency(t *testing.T) {
	g, _, err := graph.RandomGeometric(100, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPSP(g)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		u := rng.Intn(a.N())
		r := rng.Float64() * a.Diameter()
		ball := a.Ball(u, r)
		if len(ball) != a.BallSize(u, r) {
			t.Fatalf("Ball/BallSize disagree at u=%d r=%v", u, r)
		}
		inBall := make(map[int]bool, len(ball))
		for _, v := range ball {
			if a.Dist(u, v) > r {
				t.Fatalf("node %d in Ball(%d,%v) at distance %v", v, u, r, a.Dist(u, v))
			}
			inBall[v] = true
		}
		for v := 0; v < a.N(); v++ {
			if !inBall[v] && a.Dist(u, v) <= r {
				t.Fatalf("node %d missing from Ball(%d,%v)", v, u, r)
			}
		}
	}
}

func TestBallOfSize(t *testing.T) {
	g := mustGrid(t, 3, 3)
	a := NewAPSP(g)
	b := a.BallOfSize(4, 5) // center of 3x3 grid: self + 4 neighbors
	if len(b) != 5 || b[0] != 4 {
		t.Fatalf("BallOfSize(4,5) = %v", b)
	}
	for _, v := range b[1:] {
		if a.Dist(4, v) != 1 {
			t.Fatalf("BallOfSize(4,5) contains %v at distance %v", v, a.Dist(4, v))
		}
	}
	if got := a.BallOfSize(0, 1000); len(got) != 9 {
		t.Fatalf("BallOfSize clamps to n: len=%d", len(got))
	}
}

func TestNearest(t *testing.T) {
	g := mustGrid(t, 3, 3)
	a := NewAPSP(g)
	v, d := a.Nearest(0, []int{8, 2, 6})
	if v != 2 || d != 2 {
		t.Fatalf("Nearest = %d,%v want 2,2", v, d)
	}
	// Tie between 2 and 6 (both at distance 2): smaller id wins.
	v, _ = a.Nearest(0, []int{6, 2})
	if v != 2 {
		t.Fatalf("tie broken to %d, want 2", v)
	}
	v, d = a.Nearest(0, nil)
	if v != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty Nearest = %d,%v", v, d)
	}
}

func TestDiameterAndNormalized(t *testing.T) {
	g, err := graph.Path(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPSP(g)
	if a.Diameter() != 8 {
		t.Fatalf("Diameter = %v, want 8", a.Diameter())
	}
	if a.MinPairDistance() != 2 {
		t.Fatalf("MinPairDistance = %v, want 2", a.MinPairDistance())
	}
	if a.NormalizedDiameter() != 4 {
		t.Fatalf("NormalizedDiameter = %v, want 4", a.NormalizedDiameter())
	}
}

func TestVoronoiPartition(t *testing.T) {
	g := mustGrid(t, 6, 6)
	a := NewAPSP(g)
	centers := []int{0, 35, 17}
	owner, dist, parent := Voronoi(g, centers)
	for v := 0; v < g.N(); v++ {
		if owner[v] < 0 {
			t.Fatalf("node %d unassigned", v)
		}
		c := centers[owner[v]]
		if math.Abs(dist[v]-a.Dist(v, c)) > 1e-9 {
			t.Fatalf("node %d: voronoi dist %v != metric dist %v", v, dist[v], a.Dist(v, c))
		}
		// Owner must minimize (distance, center id).
		for _, c2 := range centers {
			d2 := a.Dist(v, c2)
			if d2 < dist[v] || (d2 == dist[v] && c2 < c) {
				t.Fatalf("node %d assigned to %d but %d is better", v, c, c2)
			}
		}
	}
	// Each cell is connected via the parent forest and parents stay
	// within the cell.
	for v := 0; v < g.N(); v++ {
		steps := 0
		for x := v; parent[x] != -1; x = parent[x] {
			if owner[parent[x]] != owner[v] {
				t.Fatalf("parent chain of %d leaves its cell", v)
			}
			if steps++; steps > g.N() {
				t.Fatalf("parent chain of %d does not terminate", v)
			}
		}
	}
	for i, c := range centers {
		if owner[c] != i || parent[c] != -1 {
			t.Fatalf("center %d mis-assigned: owner=%d parent=%d", c, owner[c], parent[c])
		}
	}
}

func TestVoronoiSingleCenter(t *testing.T) {
	g := mustGrid(t, 4, 4)
	owner, dist, _ := Voronoi(g, []int{5})
	spt := Dijkstra(g, 5)
	for v := 0; v < g.N(); v++ {
		if owner[v] != 0 {
			t.Fatalf("owner[%d] = %d", v, owner[v])
		}
		if math.Abs(dist[v]-spt.Dist[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], spt.Dist[v])
		}
	}
}

func TestDoublingDimensionSmallOnLine(t *testing.T) {
	g, err := graph.Path(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPSP(g)
	alpha := EstimateDoublingDimension(a, 0, 0)
	// Line metrics have doubling dimension 1; greedy may up to double it
	// and discretization adds a little slack.
	if alpha > 2.1 {
		t.Fatalf("line doubling estimate %v too large", alpha)
	}
	if alpha < 0.9 {
		t.Fatalf("line doubling estimate %v too small", alpha)
	}
}

func TestDoublingDimensionGrid(t *testing.T) {
	g := mustGrid(t, 12, 12)
	a := NewAPSP(g)
	alpha := EstimateDoublingDimension(a, 200, 4)
	// Planar grid: dimension ~2, greedy estimate at most ~4-ish.
	if alpha > 5 {
		t.Fatalf("grid doubling estimate %v too large", alpha)
	}
}

func TestGreedyCoverCountWholeBall(t *testing.T) {
	g := mustGrid(t, 4, 4)
	a := NewAPSP(g)
	// Radius so small the ball is a single node: one ball suffices.
	if c := GreedyCoverCount(a, 0, 0); c != 1 {
		t.Fatalf("cover count at r=0 is %d, want 1", c)
	}
}
