// Package labeled implements the paper's labeled (name-dependent)
// compact routing schemes for doubling networks:
//
//   - Simple: a (1+O(eps))-stretch scheme with ceil(log n)-bit labels
//     whose tables store ring entries at every net level, so its
//     storage carries a log(Delta) factor. It plays the role of the
//     Abraham–Gavoille–Goldberg–Malkhi scheme the paper cites as
//     Lemma 3.1 and is the underlying scheme of the simple
//     name-independent scheme (Theorem 1.4).
//
//   - ScaleFree: the paper's Theorem 1.2 scheme. Tables keep ring
//     entries only at the O(log n / eps) levels R(u); everywhere else
//     routing falls through to ball-packing Voronoi cells, per-cell
//     tree routing, and Search Tree II lookups, which removes the
//     log(Delta) dependence.
//
// Node labels are the DFS leaf enumeration of the netting tree
// (Section 4.1): integers in [0, n), the minimum conceivable label.
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package labeled

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"compactrouting/internal/bits"
	"compactrouting/internal/core"
	"compactrouting/internal/graph"
	"compactrouting/internal/metric"
	"compactrouting/internal/par"
	"compactrouting/internal/rnet"
)

// Simple is the non-scale-free (1+O(eps))-stretch labeled scheme.
type Simple struct {
	g   *graph.Graph
	a   metric.Distancer
	h   *rnet.Hierarchy
	nt  *rnet.NettingTree
	eps float64
	// ringFactor scales ring radii (see NewSimpleRingFactor).
	ringFactor float64
	name       string
	// rings holds X_i(v) with ring radius ringFactor*Radius(i) for
	// every node v and level i in [0, L]: node v's ring k is level
	// k - rings.node[v], and each ring is sorted by range start (lookup
	// order; EncodeTable restores the canonical ascending-x order).
	rings  ringArena
	tblBit []int
	idBits int
}

var _ core.LabeledScheme = (*Simple)(nil)

// defaultRingFactor is the ring radius multiplier: X_i(u) =
// B_u(F*2^i) ∩ Y_i with F = ringFactor/eps. F = 2/eps yields stretch
// <= 1 + 4eps/(1-eps).
const defaultRingFactor = 2.0

// NewSimple compiles the scheme. Preprocessing is O(n^2 log Delta) on
// the dense backend and ball-local on the lazy one.
func NewSimple(g *graph.Graph, a metric.Distancer, eps float64) (*Simple, error) {
	return NewSimpleRingFactor(g, a, eps, defaultRingFactor)
}

// NewSimpleRingFactor compiles the scheme with an explicit ring radius
// multiplier (rings have radius factor*2^i/eps). Values below 2 shrink
// tables but weaken the stretch guarantee; it exists for the ablation
// experiments. factor must be at least 1 (below that the zooming
// ancestor may fall outside the ring and routing gets stuck).
//
// The ring build is center-first: instead of intersecting every node's
// ball with Y_i, each net point x ∈ Y_i scatters itself into the ring
// of every node of B_x(radius). Membership and next hops then read only
// center rows — Dist(x, v), and NextHop(v, x) which is column v of x's
// own tree — so the lazy backend builds |Y_i| truncated rows per level
// (prefetched in parallel) instead of one full row per node. The
// scattered entries are then placed into the ring arena node by node,
// each ring in ascending range start for the arena's binary search.
func NewSimpleRingFactor(g *graph.Graph, a metric.Distancer, eps, factor float64) (*Simple, error) {
	core.NoteSchemeBuild()
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("labeled: eps %v out of (0, 0.5]", eps)
	}
	if factor < 1 {
		return nil, fmt.Errorf("labeled: ring factor %v below 1", factor)
	}
	h := rnet.NewHierarchy(a, 0)
	nt := rnet.NewNettingTree(h)
	s := &Simple{
		g: g, a: a, h: h, nt: nt, eps: eps,
		ringFactor: factor,
		name:       "labeled/simple",
		tblBit:     make([]int, g.N()),
		idBits:     bits.UintBits(g.N()),
	}
	n := g.N()
	levels := h.TopLevel() + 1
	// members[i] and nexts[i] collect level i's entries as (storing
	// node, next hop) pairs, one run per center; runs[i] lists the runs
	// by ascending range start. Centers at one level have disjoint
	// ranges, so laying the runs into the arena in that order leaves
	// every ring in lookup order.
	type run struct{ x, lo, hi, first, end int32 }
	members := make([][]int32, levels)
	nexts := make([][]int32, levels)
	runs := make([][]run, levels)
	var scratch []int
	centers := make([]int, 0, n)
	for i := 0; i < levels; i++ {
		radius := s.ringFactor * h.Radius(i) / s.eps
		centers = append(centers[:0], h.Levels[i]...)
		sort.Ints(centers)
		metric.PrefetchBalls(a, centers, radius)
		for _, x := range centers {
			rg, _ := nt.Range(x, i)
			first := int32(len(members[i]))
			scratch = a.AppendBall(scratch[:0], x, radius)
			for _, v := range scratch {
				next := a.NextHop(v, x)
				if next < 0 {
					next = v // x == v: the entry's hop is never followed
				}
				members[i] = append(members[i], int32(v))
				nexts[i] = append(nexts[i], int32(next))
			}
			runs[i] = append(runs[i], run{x: int32(x), lo: int32(rg.Lo), hi: int32(rg.Hi), first: first, end: int32(len(members[i]))})
		}
		slices.SortFunc(runs[i], func(a, b run) int { return cmp.Compare(a.lo, b.lo) })
	}
	// Ring k = v*levels + i: count, prefix-sum, place.
	start := make([]int32, n*levels+1)
	for i, vs := range members {
		for _, v := range vs {
			start[int(v)*levels+i+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	entries := make([]ringEntry, start[len(start)-1])
	fill := append([]int32(nil), start[:len(start)-1]...)
	for i, vs := range members {
		for _, r := range runs[i] {
			for j := r.first; j < r.end; j++ {
				k := int(vs[j])*levels + i
				entries[fill[k]] = ringEntry{x: r.x, lo: r.lo, hi: r.hi, next: nexts[i][j]}
				fill[k]++
			}
		}
	}
	node := make([]int32, n+1)
	for v := range node {
		node[v] = int32(v * levels)
	}
	s.rings = ringArena{entries: entries, start: start, node: node}
	// The order check and the bit accounting are embarrassingly
	// parallel: iteration v reads only v's rings and writes only
	// errs[v] and tblBit[v] (see EncodeTable for the layout the
	// accounting mirrors bit for bit).
	errs := make([]error, n)
	par.For(n, func(v int) {
		bitsHere := bits.UvarintLen(uint64(levels)) + s.idBits
		lo, hi := s.rings.rings(v)
		for k := lo; k < hi; k++ {
			ring := s.rings.ring(k)
			if err := checkDisjoint(ring); err != nil && errs[v] == nil {
				errs[v] = fmt.Errorf("labeled: node %d level %d: %w", v, k-lo, err)
			}
			bitsHere += bits.UvarintLen(uint64(len(ring))) + len(ring)*ringBits(s.idBits)
		}
		s.tblBit[v] = bitsHere
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.rings.seal()
	return s, nil
}

// SchemeName implements core.LabeledScheme.
func (s *Simple) SchemeName() string { return s.name }

// LabelOf returns v's ceil(log n)-bit label: the netting-tree DFS leaf
// index.
func (s *Simple) LabelOf(v int) int { return s.nt.Label(v) }

// NodeOfLabel inverts LabelOf (preprocessing-side helper for tests and
// the name-independent schemes).
func (s *Simple) NodeOfLabel(l int) int { return s.nt.NodeOfLabel(l) }

// TableBits returns the routing table size of v in bits.
func (s *Simple) TableBits(v int) int { return s.tblBit[v] }

// Eps returns the scheme's stretch parameter.
func (s *Simple) Eps() float64 { return s.eps }

// RouteToLabel delivers a packet from src to the node labeled label by
// iterating the local Step function. Every forwarding decision reads
// only the current node's table and the packet header (destination
// label + current intermediate target).
func (s *Simple) RouteToLabel(src, label int) (*core.Route, error) {
	if src < 0 || src >= s.g.N() {
		return nil, fmt.Errorf("labeled: source %d out of range", src)
	}
	h, err := s.PrepareHeader(label)
	if err != nil {
		return nil, err
	}
	tr := core.NewTrace(s.g, src)
	maxSteps := 4 * s.g.N() * (s.h.TopLevel() + 2)
	for step := 0; ; step++ {
		if step > maxSteps {
			return nil, fmt.Errorf("labeled: no progress routing to label %d", label)
		}
		next, nh, arrived, err := s.Step(tr.At(), h)
		if err != nil {
			return nil, err
		}
		if arrived {
			return tr.Finish(s.nt.NodeOfLabel(label))
		}
		tr.Header(nh.Bits())
		if err := tr.Hop(next); err != nil {
			return nil, err
		}
		h = nh
	}
}

// MaxLevel exposes the hierarchy height (log Delta) for reports.
func (s *Simple) MaxLevel() int { return s.h.TopLevel() }

// Hierarchy exposes the shared net hierarchy (the name-independent
// schemes reuse it).
func (s *Simple) Hierarchy() *rnet.Hierarchy { return s.h }

// NettingTree exposes the shared netting tree.
func (s *Simple) NettingTree() *rnet.NettingTree { return s.nt }

// StretchBound returns the analytical stretch guarantee, 1+4eps/(1-eps)
// at the default ring factor 2 (generalizing to 1 + (2F)/(F/2 - 1) * eps
// -ish for factor F; smaller factors weaken it).
func (s *Simple) StretchBound() float64 {
	f := s.ringFactor
	denom := f/2 - s.eps
	if denom <= 0 {
		return math.Inf(1)
	}
	return 1 + 2*f*s.eps/denom
}

// checkFar evaluates Algorithm 5's line-3 distance test
// d(u, x) >= 2^{i-1}/eps - 2^i for a level of the given radius; it is
// precomputed into the far bit of scale-free ring entries.
func checkFar(d, radius, eps float64) bool {
	return d >= radius/(2*eps)-radius
}
