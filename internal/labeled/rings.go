package labeled

import (
	"cmp"
	"fmt"
	"slices"

	"compactrouting/internal/bsearch"
)

// ringEntry is one ring record in a node's table: the net point x, the
// netting-tree range of (x, i), the next hop toward x, and whether x is
// still "far" (Algorithm 5's line-3 distance test, precomputed as one
// bit since it only depends on the storing node).
type ringEntry struct {
	x    int32
	lo   int32
	hi   int32
	next int32
	far  bool
}

// ringBits is the encoded size of one ring entry: four ids and a flag.
func ringBits(idBits int) int { return 4*idBits + 1 }

// ringArena holds every ring of a scheme in one backing array, each
// node's rings back to back: node v owns rings node[v] <= k < node[v+1],
// and ring k is entries[start[k]:start[k+1]], so a hop's ring lookups
// read one node's adjacent levels. keys packs every entry's range
// start (lo) in the same positions, so a lookup's probes touch 4-byte
// keys and only the candidate's full entry.
type ringArena struct {
	entries []ringEntry
	keys    []int32
	start   []int32
	node    []int32
}

// newRingArena returns an empty arena with room for the given counts.
func newRingArena(nodes, rings, entries int) ringArena {
	return ringArena{
		entries: make([]ringEntry, 0, entries),
		start:   make([]int32, 1, rings+1),
		node:    make([]int32, 1, nodes+1),
	}
}

// addRing appends one ring to the node being filled.
func (a *ringArena) addRing(ring []ringEntry) {
	a.entries = append(a.entries, ring...)
	a.closeRing()
}

// closeRing ends the ring being filled (the entries appended since the
// previous ring ended) and returns it.
func (a *ringArena) closeRing() []ringEntry {
	first := a.start[len(a.start)-1]
	a.start = append(a.start, int32(len(a.entries)))
	return a.entries[first:]
}

// endNode closes the node being filled: the rings added since the
// previous endNode are its levels, in order.
func (a *ringArena) endNode() { a.node = append(a.node, int32(len(a.start)-1)) }

// seal derives the lookup keys once every ring is in lookup order.
func (a *ringArena) seal() {
	a.keys = make([]int32, len(a.entries))
	for i := range a.entries {
		a.keys[i] = a.entries[i].lo
	}
}

// rings returns the index range [lo, hi) of v's rings.
func (a *ringArena) rings(v int) (lo, hi int) { return int(a.node[v]), int(a.node[v+1]) }

// ring returns ring k's entries.
func (a *ringArena) ring(k int) []ringEntry { return a.entries[a.start[k]:a.start[k+1]] }

// sortByLo puts a ring in lookup order (ascending range start) and
// checks the invariant find's binary search relies on: the ranges
// of one ring are disjoint netting-tree subtrees, so at most one entry
// contains any label.
func sortByLo(ring []ringEntry) error {
	slices.SortFunc(ring, func(a, b ringEntry) int { return cmp.Compare(a.lo, b.lo) })
	return checkDisjoint(ring)
}

// sortByLoTracked is sortByLo for a ring whose stored order must
// survive: it appends to moved, for each entry in the ring's original
// order, the index the sort moved it to.
func sortByLoTracked(ring []ringEntry, moved []int32) ([]int32, error) {
	perm := make([]int32, len(ring))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(ring[a].lo, ring[b].lo) })
	orig := append([]ringEntry(nil), ring...)
	base := len(moved)
	moved = append(moved, perm...) // resized; overwritten below
	for j, i := range perm {
		ring[j] = orig[i]
		moved[base+int(i)] = int32(j)
	}
	return moved, checkDisjoint(ring)
}

// checkDisjoint verifies a lo-sorted ring's ranges are well formed and
// pairwise disjoint.
func checkDisjoint(ring []ringEntry) error {
	for k := range ring {
		if ring[k].lo > ring[k].hi {
			return fmt.Errorf("ring range [%d,%d] is empty", ring[k].lo, ring[k].hi)
		}
		if k > 0 && ring[k].lo <= ring[k-1].hi {
			return fmt.Errorf("ring ranges [%d,%d] and [%d,%d] overlap", ring[k-1].lo, ring[k-1].hi, ring[k].lo, ring[k].hi)
		}
	}
	return nil
}

// find returns the entry of lo-sorted ring k whose range contains
// label, or nil: the last entry starting at or before label is the
// only candidate, because the ranges are disjoint. The search probes
// the packed keys and reads only the candidate's full entry.
func (a *ringArena) find(k int, label int32) *ringEntry {
	lo := int(a.start[k])
	i := bsearch.LastLE(a.keys[lo:a.start[k+1]], label)
	if i < 0 {
		return nil
	}
	if e := &a.entries[lo+i]; label <= e.hi {
		return e
	}
	return nil
}

// minimalHit walks v's contiguous rings from level 0 up and returns
// the first level holding label's net ancestor, with its entry.
func (a *ringArena) minimalHit(v int, label int32) (int, *ringEntry, bool) {
	lo, hi := a.rings(v)
	for k := lo; k < hi; k++ {
		if e := a.find(k, label); e != nil {
			return k - lo, e, true
		}
	}
	return 0, nil, false
}

// byX returns a copy of ring in ascending x, the canonical order the
// Simple table codec emits.
func byX(ring []ringEntry) []ringEntry {
	out := append([]ringEntry(nil), ring...)
	slices.SortFunc(out, func(a, b ringEntry) int { return cmp.Compare(a.x, b.x) })
	return out
}
