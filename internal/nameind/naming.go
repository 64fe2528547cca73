// Package nameind implements the paper's name-independent compact
// routing schemes: routing on top of arbitrary original node names that
// carry no topological information.
//
//   - Simple (Theorem 1.4, PODC 2006): (9+O(eps)) stretch. Every net
//     point y ∈ Y_i keeps a search tree over the ball B_y(2^i/eps)
//     holding (name, label) pairs; a source climbs its zooming sequence,
//     searching ever larger balls until the destination's label is
//     found, then routes with the underlying labeled scheme
//     (Algorithm 3). Storage carries a log(Delta) factor.
//
//   - ScaleFree (Theorem 1.1, SODA 2007): same stretch, storage
//     independent of Delta. Search trees live on packing balls (one per
//     ball of every ℬ_j, indexing the 4x-larger ball around the same
//     center); a zooming ball B_u(2^i/eps) keeps its own tree only when
//     no packing ball subsumes it, and otherwise delegates through an
//     H(u,i) link (Algorithm 4).
//
// Search-tree virtual edges are realized by the underlying labeled
// scheme: the two endpoints store each other's labels (Section 3.1.1).
//
// This package is bound by the repo's deterministic ruleset: its
// outputs must be a pure function of explicit seeds (determinlint
// enforces the source-level contract; see DESIGN.md §Static analysis).
//
//determinlint:deterministic
package nameind

import (
	"fmt"
	"math/rand"
)

// Naming is an injection from nodes to their original names. Names are
// arbitrary distinct non-negative integers — the name-independent
// model lets an adversary (or an application such as a DHT hashing
// peers into a large identifier space) pick them. Experiments use
// random permutations; tests also exercise adversarial and sparse
// namings.
type Naming struct {
	nameOf []int       // nameOf[v] = name of node v
	nodeOf map[int]int // nodeOf[name] = v
}

// NewNaming builds a naming from an explicit name array. Names must be
// distinct and non-negative; they need not be contiguous (sparse
// identifier spaces are allowed).
func NewNaming(nameOf []int) (*Naming, error) {
	nodeOf := make(map[int]int, len(nameOf))
	for v, name := range nameOf {
		if name < 0 {
			return nil, fmt.Errorf("nameind: negative name %d for node %d", name, v)
		}
		if prev, dup := nodeOf[name]; dup {
			return nil, fmt.Errorf("nameind: name %d assigned to both %d and %d", name, prev, v)
		}
		nodeOf[name] = v
	}
	out := &Naming{nameOf: make([]int, len(nameOf)), nodeOf: nodeOf}
	copy(out.nameOf, nameOf)
	return out, nil
}

// RandomNaming names nodes by a seeded random permutation of [0, n).
func RandomNaming(n int, seed int64) *Naming {
	nm, _ := NewNaming(rand.New(rand.NewSource(seed)).Perm(n))
	return nm
}

// SparseRandomNaming draws distinct names uniformly from [0, space) —
// the DHT-style setting where identifiers are hashes much larger than
// n. space must be at least n.
func SparseRandomNaming(n int, space int64, seed int64) (*Naming, error) {
	if space < int64(n) {
		return nil, fmt.Errorf("nameind: name space %d smaller than n=%d", space, n)
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int]bool, n)
	names := make([]int, n)
	for i := range names {
		for {
			name := int(rng.Int63n(space))
			if !used[name] {
				used[name] = true
				names[i] = name
				break
			}
		}
	}
	return NewNaming(names)
}

// N returns the number of nodes.
func (nm *Naming) N() int { return len(nm.nameOf) }

// NameOf returns node v's name.
func (nm *Naming) NameOf(v int) int { return nm.nameOf[v] }

// NodeOf returns the node bearing the given name, or -1 if no node has
// it.
func (nm *Naming) NodeOf(name int) int {
	if v, ok := nm.nodeOf[name]; ok {
		return v
	}
	return -1
}

// MaxName returns the largest assigned name (0 for an empty naming).
func (nm *Naming) MaxName() int {
	max := 0
	for _, name := range nm.nameOf {
		if name > max {
			max = name
		}
	}
	return max
}
