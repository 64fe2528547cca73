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

	"compactrouting/internal/bsearch"
	"compactrouting/internal/metric"
)

// Pair is one stored dictionary entry.
type Pair[D any] struct {
	Key  int
	Data D
}

// ChildRef is the per-child information a tree node keeps: the child's
// graph node id and its position in the tree, the virtual edge weight,
// and the key range of the pairs stored in the child's subtree (Empty
// if none).
type ChildRef struct {
	ID    int32
	Pos   int32
	Lo    int
	Hi    int
	EdgeW float64
	Empty bool
}

// Node is one search-tree node, resident at a graph node. Its children
// and stored pairs are windows of the tree's child and pair arenas
// (Tree.Children, Tree.Pairs).
type Node struct {
	Parent int32   // graph node id of tree parent, -1 at the center
	Level  int32   // net level (0 = center); tail nodes get level -1
	EdgeW  float64 // virtual edge weight to parent
	// Lo, Hi bound the keys stored in this node's subtree (meaningless
	// when SubEmpty).
	Lo, Hi   int
	SubEmpty bool
	kids     [2]int32 // [start, end) in Tree.kids
	pairs    [2]int32 // [start, end) in Tree.pairs, sorted by key
}

// Tree is a compiled search tree on a ball. Its nodes are flat records
// indexed by position: the node at position p is resident at graph
// node Members[p]. A node's children are one contiguous window of the
// tree's child arena and its pairs one window of the pair arena, so a
// hop at a tree node reads its record and a few adjacent child refs.
type Tree[D any] struct {
	Center  int
	Radius  float64
	Eps     float64
	Members []int   // ball nodes, ascending id (== tree nodes, by position)
	Levels  [][]int // Levels[t] = U_t; tail nodes are not in any level
	// TailSites lists the sites whose Voronoi tails absorb the
	// below-cap nodes, ascending (empty for type-I trees).
	TailSites []int
	// Tails[k] lists the tail nodes hanging under TailSites[k], in path
	// order.
	Tails [][]int
	// TailEdgeW is the virtual weight of every tail edge (2*eps*r/n).
	TailEdgeW float64

	nodes []Node
	kids  []ChildRef
	pairs []Pair[D]
}

// Pos returns the position of graph node v in the tree, or -1 when v
// is not a member.
func (t *Tree[D]) Pos(v int) int { return bsearch.Index(t.Members, v) }

// At returns the node record at position p.
func (t *Tree[D]) At(p int) *Node { return &t.nodes[p] }

// Children returns the child refs of the node at position p, in the
// order the construction attached them.
func (t *Tree[D]) Children(p int) []ChildRef {
	k := t.nodes[p].kids
	return t.kids[k[0]:k[1]:k[1]]
}

// Pairs returns the pairs stored at the node at position p, sorted by
// key.
func (t *Tree[D]) Pairs(p int) []Pair[D] {
	k := t.nodes[p].pairs
	return t.pairs[k[0]:k[1]:k[1]]
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
		Members: members,
		nodes:   make([]Node, len(members)),
	}
	b := &linker{parentPos: make([]int32, len(members))}
	cp := t.Pos(center)
	t.nodes[cp] = Node{Parent: -1, Level: 0}
	b.parentPos[cp] = -1
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
			t.buildTails(a, b, remaining)
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
			t.attach(b, v, p, d, level)
		}
		t.Levels = append(t.Levels, net)
		rho /= 2
		level++
	}
	t.link(b)
	return t, nil
}

// linker records the construction's parent edges in attachment order;
// link turns them into the child arena.
type linker struct {
	parentPos []int32 // parent position per position, -1 at the center
	order     []int32 // attached positions, in attachment order
}

// attach makes v a child of p over a virtual edge of weight w.
func (t *Tree[D]) attach(b *linker, v, p int, w float64, level int) {
	vp := t.Pos(v)
	t.nodes[vp] = Node{Parent: int32(p), EdgeW: w, Level: int32(level)}
	b.parentPos[vp] = int32(t.Pos(p))
	b.order = append(b.order, int32(vp))
}

// link lays the child arena out parent by parent: each node's children
// become one contiguous window, in attachment order.
func (t *Tree[D]) link(b *linker) {
	m := len(t.Members)
	start := make([]int32, m+1)
	for _, vp := range b.order {
		start[b.parentPos[vp]+1]++
	}
	for p := 0; p < m; p++ {
		start[p+1] += start[p]
	}
	t.kids = make([]ChildRef, len(b.order))
	fill := append([]int32(nil), start[:m]...)
	for _, vp := range b.order {
		pp := b.parentPos[vp]
		nd := &t.nodes[vp]
		t.kids[fill[pp]] = ChildRef{ID: int32(t.Members[vp]), Pos: vp, EdgeW: nd.EdgeW, Empty: true}
		fill[pp]++
	}
	for p := range t.nodes {
		t.nodes[p].kids = [2]int32{start[p], start[p+1]}
	}
}

// buildTails implements Definition 4.2(ii): assign each remaining node
// to the Voronoi region of its nearest top-net site and hang the
// region's nodes as a path under the site with virtual edge weight
// 2*eps*r/n.
func (t *Tree[D]) buildTails(a metric.Distancer, b *linker, remaining []int) {
	sites := t.Levels[len(t.Levels)-1]
	t.TailEdgeW = 2 * t.Eps * t.Radius / float64(a.N())
	siteIdx := make(map[int]int, len(sites))
	for k, s := range sites {
		siteIdx[s] = k
	}
	bySite := make([][]int, len(sites))
	for _, v := range remaining {
		s, _ := a.Nearest(v, sites)
		bySite[siteIdx[s]] = append(bySite[siteIdx[s]], v)
	}
	type tail struct {
		site  int
		nodes []int
	}
	var tails []tail
	for k, s := range sites {
		nodes := bySite[k]
		if len(nodes) == 0 {
			continue
		}
		sort.Ints(nodes)
		tails = append(tails, tail{s, nodes})
		prev := s
		for _, v := range nodes {
			t.attach(b, v, prev, t.TailEdgeW, -1)
			prev = v
		}
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].site < tails[j].site })
	for _, tl := range tails {
		t.TailSites = append(t.TailSites, tl.site)
		t.Tails = append(t.Tails, tl.nodes)
	}
}

// Height returns the maximum virtual-edge distance from the center to
// any tree node; Equation (3) bounds it by (1+O(eps)) * Radius.
func (t *Tree[D]) Height() float64 {
	max := 0.0
	for p := range t.nodes {
		h := 0.0
		for nd := &t.nodes[p]; nd.Parent != -1; nd = &t.nodes[t.Pos(int(nd.Parent))] {
			h += nd.EdgeW
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
// previous contents. The sorted pairs are the tree's pair arena: the
// DFS quotas are consecutive windows of it.
func (t *Tree[D]) Store(pairs []Pair[D]) {
	sorted := make([]Pair[D], len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	t.pairs = sorted
	m := len(t.Members)
	k := len(sorted)
	// DFS assignment: node with DFS index q gets pairs
	// [floor(q*k/m), floor((q+1)*k/m)).
	q := 0
	var assign func(p int)
	assign = func(p int) {
		lo, hi := q*k/m, (q+1)*k/m
		q++
		t.nodes[p].pairs = [2]int32{int32(lo), int32(hi)}
		for _, c := range t.Children(p) {
			assign(int(c.Pos))
		}
	}
	cp := t.Pos(t.Center)
	assign(cp)
	// Subtree ranges bottom-up.
	var ranges func(p int) (lo, hi int, ok bool)
	ranges = func(p int) (int, int, bool) {
		nd := &t.nodes[p]
		lo, hi, ok := 0, 0, false
		if ps := t.Pairs(p); len(ps) > 0 {
			lo, hi, ok = ps[0].Key, ps[len(ps)-1].Key, true
		}
		kids := t.Children(p)
		for i := range kids {
			clo, chi, cok := ranges(int(kids[i].Pos))
			kids[i].Lo, kids[i].Hi, kids[i].Empty = clo, chi, !cok
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
	ranges(cp)
}

// Search performs Algorithm 2: descend from the center following child
// ranges. It returns the found data (or the zero value), whether the
// key was found, and the descent trail of graph node ids starting at
// the center — the caller realizes the trail physically and doubles it
// for the return leg.
func (t *Tree[D]) Search(key int) (data D, found bool, trail []int) {
	p := t.Pos(t.Center)
	trail = append(trail, t.Center)
	for {
		descended := false
		for _, c := range t.Children(p) {
			if !c.Empty && c.Lo <= key && key <= c.Hi {
				p = int(c.Pos)
				trail = append(trail, int(c.ID))
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		for _, pr := range t.Pairs(p) {
			if pr.Key == key {
				return pr.Data, true, trail
			}
		}
		return data, false, trail
	}
}

// MaxDegree returns the largest number of children of any tree node.
func (t *Tree[D]) MaxDegree() int {
	max := 0
	for _, nd := range t.nodes {
		if d := int(nd.kids[1] - nd.kids[0]); d > max {
			max = d
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
