// Package searchtree implements the paper's search trees: the
// (key, data) dictionaries spread over the nodes of a ball that both
// routing schemes consult.
//
// A search tree on a ball B_c(r) (Definition 3.2) layers the ball into
// nets U_1, U_2, ... of geometrically shrinking radius below the center
// U_0 = {c}, connects every node to its nearest node one level up, and
// distributes the stored pairs evenly over the tree in DFS order
// (Algorithm 1). A lookup descends from the center following subtree key
// ranges (Algorithm 2); the total descent length is at most (1+eps)r, so
// a round trip from the center costs 2(1+eps)r.
//
// Search Tree II (Definition 4.2) caps the number of net levels at
// ceil(log2 n) and hangs the remaining nodes off their nearest net site
// as Voronoi tail paths with tiny virtual edge weights, which removes
// the log(Delta) level dependence — the scale-free variant used by the
// labeled scheme of Theorem 1.2.
package searchtree

import (
	"fmt"
	"math"
	"sort"

	"compactrouting/internal/metric"
)

// Pair is one stored dictionary entry.
type Pair[D any] struct {
	Key  int
	Data D
}

// ChildRef is the per-child information a tree node keeps: the child's
// graph node id, the virtual edge weight, and the key range of the
// pairs stored in the child's subtree (Empty if none).
type ChildRef struct {
	ID    int
	EdgeW float64
	Lo    int
	Hi    int
	Empty bool
}

// Node is one search-tree node, resident at a graph node.
type Node[D any] struct {
	Parent   int     // graph node id of tree parent, -1 at the center
	EdgeW    float64 // virtual edge weight to parent
	Level    int     // net level (0 = center); tail nodes get level -1
	Children []ChildRef
	Pairs    []Pair[D] // pairs stored at this node, sorted by key
	// Lo, Hi bound the keys stored in this node's subtree (meaningless
	// when SubEmpty).
	Lo, Hi   int
	SubEmpty bool
}

// Tree is a compiled search tree on a ball.
type Tree[D any] struct {
	Center  int
	Radius  float64
	Eps     float64
	Nodes   map[int]*Node[D]
	Members []int   // ball nodes, ascending id (== tree nodes)
	Levels  [][]int // Levels[t] = U_t; tail nodes are not in any level
	// TailSites lists the sites whose Voronoi tails absorb the
	// below-cap nodes (empty for type-I trees).
	TailSites []int
	// TailOf[site] lists the tail nodes hanging under site, in path
	// order.
	TailOf map[int][]int
	// TailEdgeW is the virtual weight of every tail edge (2*eps*r/n).
	TailEdgeW float64
}

// Config controls construction.
type Config struct {
	// Eps is the paper's eps in (0,1): level radii start at Eps*Radius/2.
	Eps float64
	// MaxLevels caps the number of net levels (Definition 4.2); 0 means
	// uncapped (Definition 3.2).
	MaxLevels int
	// MinNetRadius stops refining once the net radius drops to or below
	// it (the metric's minimum pairwise distance is the natural choice;
	// at that point a net must absorb every remaining node).
	MinNetRadius float64
}

// New builds the search tree on B_center(radius). The APSP oracle is
// used only at construction time (the preprocessing phase).
func New[D any](a metric.Distancer, center int, radius float64, cfg Config) (*Tree[D], error) {
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("searchtree: eps %v out of (0,1)", cfg.Eps)
	}
	if cfg.MinNetRadius <= 0 {
		return nil, fmt.Errorf("searchtree: MinNetRadius %v must be positive", cfg.MinNetRadius)
	}
	members := a.Ball(center, radius)
	sort.Ints(members)
	t := &Tree[D]{
		Center:  center,
		Radius:  radius,
		Eps:     cfg.Eps,
		Nodes:   make(map[int]*Node[D], len(members)),
		Members: members,
		TailOf:  map[int][]int{},
	}
	t.Nodes[center] = &Node[D]{Parent: -1, Level: 0}
	t.Levels = [][]int{{center}}
	remaining := make([]int, 0, len(members)-1)
	for _, v := range members {
		if v != center {
			remaining = append(remaining, v)
		}
	}
	rho := cfg.Eps * radius / 2
	level := 1
	for len(remaining) > 0 {
		if cfg.MaxLevels > 0 && level > cfg.MaxLevels {
			t.buildTails(a, remaining)
			remaining = nil
			break
		}
		// Greedy net of the remaining nodes at radius rho (everything
		// joins once rho is at or below the minimum pairwise distance).
		var net []int
		if rho <= cfg.MinNetRadius {
			net = remaining
			remaining = nil
		} else {
			var rest []int
			for _, v := range remaining {
				ok := true
				for _, y := range net {
					if a.Dist(v, y) < rho {
						ok = false
						break
					}
				}
				if ok {
					net = append(net, v)
				} else {
					rest = append(rest, v)
				}
			}
			remaining = rest
		}
		prev := t.Levels[level-1]
		for _, v := range net {
			p, d := a.Nearest(v, prev)
			t.Nodes[v] = &Node[D]{Parent: p, EdgeW: d, Level: level}
			t.Nodes[p].Children = append(t.Nodes[p].Children,
				ChildRef{ID: v, EdgeW: d, Empty: true})
		}
		t.Levels = append(t.Levels, net)
		rho /= 2
		level++
	}
	return t, nil
}

// buildTails implements Definition 4.2(ii): assign each remaining node
// to the Voronoi region of its nearest top-net site and hang the
// region's nodes as a path under the site with virtual edge weight
// 2*eps*r/n.
func (t *Tree[D]) buildTails(a metric.Distancer, remaining []int) {
	sites := t.Levels[len(t.Levels)-1]
	t.TailEdgeW = 2 * t.Eps * t.Radius / float64(a.N())
	byleSite := make(map[int][]int)
	for _, v := range remaining {
		s, _ := a.Nearest(v, sites)
		byleSite[s] = append(byleSite[s], v)
	}
	for _, s := range sites {
		tail := byleSite[s]
		if len(tail) == 0 {
			continue
		}
		sort.Ints(tail)
		t.TailSites = append(t.TailSites, s)
		t.TailOf[s] = tail
		prev := s
		for _, v := range tail {
			t.Nodes[v] = &Node[D]{Parent: prev, EdgeW: t.TailEdgeW, Level: -1}
			t.Nodes[prev].Children = append(t.Nodes[prev].Children,
				ChildRef{ID: v, EdgeW: t.TailEdgeW, Empty: true})
			prev = v
		}
	}
	sort.Ints(t.TailSites)
}

// Height returns the maximum virtual-edge distance from the center to
// any tree node; Equation (3) bounds it by (1+O(eps)) * Radius.
func (t *Tree[D]) Height() float64 {
	max := 0.0
	for _, v := range t.Members {
		h := 0.0
		for n := t.Nodes[v]; n.Parent != -1; n = t.Nodes[n.Parent] {
			h += n.EdgeW
		}
		if h > max {
			max = h
		}
	}
	return max
}

// Store distributes the pairs over the tree per Algorithm 1: sort by
// key, hand each DFS-visited node an even quota, then record subtree
// ranges bottom-up. It must be called exactly once, and replaces any
// previous contents.
func (t *Tree[D]) Store(pairs []Pair[D]) {
	sorted := make([]Pair[D], len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	m := len(t.Members)
	k := len(sorted)
	// DFS assignment: node with DFS index q gets pairs
	// [floor(q*k/m), floor((q+1)*k/m)).
	q := 0
	var assign func(v int)
	assign = func(v int) {
		lo, hi := q*k/m, (q+1)*k/m
		q++
		nd := t.Nodes[v]
		nd.Pairs = sorted[lo:hi:hi]
		for _, c := range nd.Children {
			assign(c.ID)
		}
	}
	assign(t.Center)
	// Subtree ranges bottom-up.
	var ranges func(v int) (lo, hi int, ok bool)
	ranges = func(v int) (int, int, bool) {
		nd := t.Nodes[v]
		lo, hi, ok := 0, 0, false
		if len(nd.Pairs) > 0 {
			lo, hi, ok = nd.Pairs[0].Key, nd.Pairs[len(nd.Pairs)-1].Key, true
		}
		for i := range nd.Children {
			clo, chi, cok := ranges(nd.Children[i].ID)
			nd.Children[i].Lo, nd.Children[i].Hi, nd.Children[i].Empty = clo, chi, !cok
			if cok {
				if !ok || clo < lo {
					lo = clo
				}
				if !ok || chi > hi {
					hi = chi
				}
				ok = true
			}
		}
		nd.Lo, nd.Hi, nd.SubEmpty = lo, hi, !ok
		return lo, hi, ok
	}
	ranges(t.Center)
}

// Search performs Algorithm 2: descend from the center following child
// ranges. It returns the found data (or the zero value), whether the
// key was found, and the descent trail of graph node ids starting at
// the center — the caller realizes the trail physically and doubles it
// for the return leg.
func (t *Tree[D]) Search(key int) (data D, found bool, trail []int) {
	cur := t.Center
	trail = append(trail, cur)
	for {
		nd := t.Nodes[cur]
		descended := false
		for _, c := range nd.Children {
			if !c.Empty && c.Lo <= key && key <= c.Hi {
				cur = c.ID
				trail = append(trail, cur)
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		for _, p := range nd.Pairs {
			if p.Key == key {
				return p.Data, true, trail
			}
		}
		return data, false, trail
	}
}

// MaxDegree returns the largest number of children of any tree node.
func (t *Tree[D]) MaxDegree() int {
	max := 0
	for _, nd := range t.Nodes {
		if len(nd.Children) > max {
			max = len(nd.Children)
		}
	}
	return max
}

// LevelRadius returns the net radius used for level t >= 1
// (eps*r/2^t); it reports 0 for the tail level -1.
func (t *Tree[D]) LevelRadius(level int) float64 {
	if level < 1 {
		return 0
	}
	return t.Eps * t.Radius / math.Pow(2, float64(level))
}
