package searchtree

import (
	"fmt"

	"compactrouting/internal/bits"
	"compactrouting/internal/bsearch"
	"compactrouting/internal/metric"
	"compactrouting/internal/treeroute"
)

// PathRealizer realizes the virtual edges of a Search Tree II
// (Definition 4.2) physically, per Lemma 4.3:
//
//   - net-level edges (u ∈ U_{t-1}, v ∈ U_t) are walked along the
//     canonical shortest path between the endpoints; every interior
//     node conceptually stores a next hop up (toward its nearest
//     U_{t-1} node, shared across edges of the level) and a next hop
//     down per descending edge through it;
//   - tail edges within a site's Voronoi region are walked with a local
//     labeled tree-routing scheme on the region's shortest-path tree.
//
// The walk itself consults the APSP oracle (equivalent hop-for-hop to
// following the stored entries); StorageBits reports what the stored
// entries would cost per node.
type PathRealizer struct {
	a metric.Distancer
	// members are the tree's members by position (shared with it).
	members []int
	// tails[k] is the tree-routing scheme on the Voronoi region of the
	// tree's k-th tail site.
	tails []*treeroute.Scheme
	// tailOf[p] = k when the member at position p is a tail node under
	// the k-th tail site, -1 otherwise (nil when the tree has no
	// tails).
	tailOf []int32
	// storage[x] = bits of realization state held at graph node x.
	storage map[int]int
}

// newPathRealizer returns a realizer over t's members with its tail
// index sized for t's tails, and no schemes yet.
func newPathRealizer[D any](a metric.Distancer, t *Tree[D]) *PathRealizer {
	r := &PathRealizer{a: a, members: t.Members, storage: map[int]int{}}
	if len(t.TailSites) > 0 {
		r.tails = make([]*treeroute.Scheme, len(t.TailSites))
		r.tailOf = make([]int32, len(t.Members))
		for p := range r.tailOf {
			r.tailOf[p] = -1
		}
		for k, tail := range t.Tails {
			for _, v := range tail {
				r.tailOf[t.Pos(v)] = int32(k)
			}
		}
	}
	return r
}

// tailScheme returns the tail scheme whose region holds v as a tail
// node, or nil when v is not a tail node of the tree.
func (r *PathRealizer) tailScheme(v int) *treeroute.Scheme {
	if r.tailOf == nil {
		return nil
	}
	p := bsearch.Index(r.members, v)
	if p < 0 || r.tailOf[p] < 0 {
		return nil
	}
	return r.tails[r.tailOf[p]]
}

// NewRealizer builds the physical realizer for a search tree. The
// voronoiParent callback computes, for the given tail sites, each graph
// node's owning site index and its parent edge in the per-site
// shortest-path forest (metric.Voronoi has exactly this shape); it is
// only invoked when the tree has tails.
func NewRealizer[D any](a metric.Distancer, t *Tree[D], voronoiParent func(sites []int) ([]int, []int)) (*PathRealizer, error) {
	r := newPathRealizer(a, t)
	idBits := bits.UintBits(a.N())
	// Net edges: charge interior nodes one shared up-entry per level
	// plus one down-entry per descending edge (Lemma 4.3's layout).
	type upKey struct{ node, level int }
	upSeen := map[upKey]bool{}
	for p, v := range t.Members {
		nd := t.At(p)
		if nd.Parent < 0 || nd.Level < 0 {
			continue // root or tail edge
		}
		path := pathBetween(a, int(nd.Parent), v)
		for _, x := range path[1 : len(path)-1] {
			// Down entry: target v -> next hop (2 ids).
			r.storage[x] += 2 * idBits
			// Up entry: one per (node, level).
			k := upKey{x, int(nd.Level)}
			if !upSeen[k] {
				upSeen[k] = true
				r.storage[x] += 2 * idBits
			}
		}
	}
	// Tail edges: per-site local tree routing over the site's Voronoi
	// region.
	if len(t.TailSites) > 0 {
		owner, parent := voronoiParent(t.TailSites)
		for k, s := range t.TailSites {
			// Extract the parent forest restricted to s's region.
			pa := make([]int, a.N())
			for i := range pa {
				pa[i] = treeroute.NotInTree
			}
			for v := 0; v < a.N(); v++ {
				if t.TailSites[owner[v]] == s {
					pa[v] = parent[v]
				}
			}
			pa[s] = -1
			sch, err := treeroute.New(pa, s)
			if err != nil {
				return nil, fmt.Errorf("searchtree: tail scheme at site %d: %w", s, err)
			}
			r.tails[k] = sch
			for v := 0; v < a.N(); v++ {
				if pa[v] != treeroute.NotInTree {
					r.storage[v] += sch.TableBits(v)
				}
			}
			// Endpoints of tail virtual edges keep each other's local
			// labels.
			prev := s
			for _, v := range t.Tails[k] {
				r.storage[prev] += sch.LabelBits(v)
				r.storage[v] += sch.LabelBits(prev)
				prev = v
			}
		}
	}
	return r, nil
}

// Walk returns the physical node path realizing the virtual edge
// between adjacent tree nodes from and to (either direction).
func (r *PathRealizer) Walk(from, to int) ([]int, error) {
	sch := r.tailScheme(from)
	if sch == nil {
		sch = r.tailScheme(to)
	}
	if sch != nil {
		return sch.Route(from, sch.Label(to))
	}
	return pathBetween(r.a, from, to), nil
}

// StorageBits returns the realization storage at graph node x.
func (r *PathRealizer) StorageBits(x int) int { return r.storage[x] }

// pathBetween returns the canonical shortest path from u to v using
// APSP next hops.
func pathBetween(a metric.Distancer, u, v int) []int {
	path := []int{u}
	for u != v {
		u = a.NextHop(u, v)
		path = append(path, u)
	}
	return path
}

// NextHopToward returns the next physical hop from node at toward the
// search-tree node target, using the same dispatch as Walk: the local
// tail tree-routing scheme when the walk belongs to a Voronoi tail,
// and the canonical shortest path (the stored Lemma 4.3 entries)
// otherwise. at must differ from target.
func (r *PathRealizer) NextHopToward(at, target int) (int, error) {
	if at == target {
		return 0, fmt.Errorf("searchtree: NextHopToward(%d, %d): already there", at, target)
	}
	sch := r.tailScheme(target)
	if sch == nil {
		sch = r.tailScheme(at)
	}
	if sch != nil {
		next, arrived, err := sch.NextHop(at, sch.Label(target))
		if err != nil {
			return 0, err
		}
		if arrived {
			return 0, fmt.Errorf("searchtree: NextHopToward arrived unexpectedly")
		}
		return next, nil
	}
	return r.a.NextHop(at, target), nil
}
