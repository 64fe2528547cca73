// Package graph provides the weighted undirected graph type that every
// routing scheme in this repository operates on, together with the
// generator families used by the experiments (grids with holes, random
// geometric graphs, exponential-diameter paths, random trees).
//
// Nodes are dense integer ids 0..N()-1. Edge weights are positive
// float64s; the shortest-path metric they induce is what the paper calls
// the network's metric. Doubling-dimension generators here produce graphs
// whose metrics have small doubling constant, matching the paper's model
// of "networks of low doubling dimension".
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Edge is a half-edge: the neighbor it leads to and its weight.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an immutable connected weighted undirected graph.
// Construct one with a Builder.
//
// Every half-edge lives in one backing array, half, node by node and
// sorted by neighbour id within a node (CSR): v's edges are
// half[off[v]:off[v+1]], and nbr holds the same windows as packed int32
// neighbour ids, so NeighborWeight's binary search reads 4-byte ids
// instead of striding over 16-byte Edges.
type Graph struct {
	half []Edge
	nbr  []int32
	off  []int32 // len N()+1
	m    int
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the adjacency list of v. The returned slice must not
// be modified.
func (g *Graph) Neighbors(v int) []Edge { return g.half[g.off[v]:g.off[v+1]:g.off[v+1]] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	for _, e := range g.Neighbors(u) {
		if e.To == v {
			return e.Weight, true
		}
	}
	return 0, false
}

// NeighborWeight is EdgeWeight by binary search over u's packed
// neighbour ids: per-hop lookups (every walk checks each forward, and
// the dist engine validates and weighs every message against the
// sender's adjacency) cost O(log deg) instead of EdgeWeight's linear
// scan. It keeps a two-way branching search rather than the
// branch-free bsearch.Index the routing tables use: on BenchmarkWalk
// (internal/server) the branch-free search measured 1–11% slower here.
//
//determinlint:hotpath
func (g *Graph) NeighborWeight(u, v int) (float64, bool) {
	if v < 0 || v >= g.N() {
		return 0, false
	}
	t := int32(v)
	lo, hi := int(g.off[u]), int(g.off[u+1])
	end := hi
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.nbr[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < end && g.nbr[lo] == t {
		return g.half[lo].Weight, true
	}
	return 0, false
}

// MinEdgeWeight returns the smallest edge weight in the graph.
func (g *Graph) MinEdgeWeight() float64 {
	min := math.Inf(1)
	for _, e := range g.half {
		if e.Weight < min {
			min = e.Weight
		}
	}
	return min
}

// Builder accumulates edges for a Graph. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	n     int
	edges map[[2]int]float64
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]int]float64)}
}

// AddEdge records the undirected edge (u,v) with weight w. Adding the
// same edge twice keeps the smaller weight. It returns an error for
// out-of-range endpoints, self-loops, or non-positive/non-finite weights.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	key := [2]int{u, v}
	if u > v {
		key = [2]int{v, u}
	}
	if old, ok := b.edges[key]; !ok || w < old {
		b.edges[key] = w
	}
	return nil
}

// Build validates connectivity and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, errors.New("graph: empty graph")
	}
	g := &Graph{
		nbr: make([]int32, 2*len(b.edges)),
		off: make([]int32, b.n+1),
		m:   len(b.edges),
	}
	if len(b.edges) > 0 {
		g.half = make([]Edge, 2*len(b.edges))
	}
	for key := range b.edges {
		g.off[key[0]+1]++
		g.off[key[1]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
	}
	fill := make([]int32, b.n)
	copy(fill, g.off)
	for key, w := range b.edges {
		u, v := key[0], key[1]
		g.half[fill[u]] = Edge{To: v, Weight: w}
		fill[u]++
		g.half[fill[v]] = Edge{To: u, Weight: w}
		fill[v]++
	}
	for v := 0; v < b.n; v++ {
		adj := g.Neighbors(v)
		sort.Slice(adj, func(i, j int) bool { return adj[i].To < adj[j].To })
	}
	for i, e := range g.half {
		g.nbr[i] = int32(e.To)
	}
	if b.n > 1 && !g.connected() {
		return nil, errors.New("graph: not connected")
	}
	return g, nil
}

func (g *Graph) connected() bool {
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Neighbors(v) {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.N()
}

// LargestComponent returns the node set of the largest connected
// component of the graph described by n and edges (used by generators
// before Build, which requires connectivity).
func LargestComponent(n int, edges map[[2]int]float64) []int {
	adj := make([][]int, n)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var best []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		cur := []int{s}
		comp[s] = s
		for i := 0; i < len(cur); i++ {
			for _, w := range adj[cur[i]] {
				if comp[w] < 0 {
					comp[w] = s
					cur = append(cur, w)
				}
			}
		}
		if len(cur) > len(best) {
			best = cur
		}
	}
	sort.Ints(best)
	return best
}
