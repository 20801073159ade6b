// Package graph provides the graph representations, synthetic workload
// generators, and exact sequential reference algorithms used throughout the
// AMPC reproduction.
//
// The reference algorithms (BFS connectivity, Kruskal MSF, greedy
// lexicographically-first MIS, Tarjan bridges and articulation points) are
// the oracles the test suite compares the distributed algorithms against.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ampc/internal/ampc"
)

// Edge is an undirected edge between two vertex ids.
type Edge struct {
	U, V int
}

// Canon returns the edge with endpoints ordered U <= V, the canonical form
// used for set comparisons.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an undirected graph in compressed sparse row (CSR) form. Vertices
// are indexed 0..N-1. Self-loops and duplicate edges are rejected at build
// time, matching the paper's preliminaries.
type Graph struct {
	n     int
	offs  []int // len n+1
	adj   []int // len 2m, neighbors sorted per vertex
	edges []Edge
	first []int // len n+1: edges[first[u]:first[u+1]] are the edges {u, v > u}
}

// NewGraph builds a CSR graph on n vertices from an edge list. It returns an
// error for out-of-range endpoints, self-loops, or duplicate edges, and for
// more than 2^31-1 vertices or edges, the range of its packed keys (packEdge)
// and their counting sort, which input in canonical order skips.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 || len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices or %d edges exceed the 2^31-1 limit", n, len(edges))
	}
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		keys[i] = packEdge(e.U, e.V)
	}
	return fromKeys(n, keys)
}

// packEdge returns the key of the canonical edge {u, v}: min<<32 | max.
func packEdge(u, v int) uint64 { return uint64(min(u, v))<<32 | uint64(max(u, v)) }

// fromKeys builds the graph on n vertices from packed edge keys in any
// order, sorting keys in place; a duplicate is an error. Filling adjacency in
// ascending key order leaves every list ascending with no per-vertex sort:
// x gets its neighbors below x from the keys (u, x), which all precede its
// keys (x, v), and each group arrives by ascending partner.
func fromKeys(n int, keys []uint64) (*Graph, error) {
	if !slices.IsSorted(keys) {
		SortPacked(keys, make([]uint64, len(keys)), [][]int32{make([]int32, n)})
	}
	g := &Graph{n: n, offs: make([]int, n+1), adj: make([]int, 2*len(keys)), edges: make([]Edge, len(keys)), first: make([]int, n+1)}
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge %v", g.edges[i-1])
		}
		g.edges[i] = Edge{int(k >> 32), int(uint32(k))}
		g.first[k>>32+1]++
		g.offs[k>>32+1]++
		g.offs[uint32(k)+1]++
	}
	for v := 0; v < n; v++ {
		g.offs[v+1] += g.offs[v]
		g.first[v+1] += g.first[v]
	}
	fill := slices.Clone(g.offs[:n])
	for _, e := range g.edges {
		g.adj[fill[e.U]] = e.V
		fill[e.U]++
		g.adj[fill[e.V]] = e.U
		fill[e.V]++
	}
	return g, nil
}

// SortPacked sorts keys ascending with two stable counting passes, by the
// low 32-bit id into scratch and by the high id back. A pass is striped over
// len(counts) goroutines: each counts its stripe's ids into counts[w], one
// prefix over (id, stripe) turns the counts into first slots, and the
// stripes scatter into disjoint slots, so any stripe count (at least one)
// sorts alike. Ids must lie below len(counts[w]), scratch be as long as
// keys, and keys number fewer than 2^31.
func SortPacked(keys, scratch []uint64, counts [][]int32) {
	p := packedPass{src: keys, dst: scratch, counts: counts}
	for _, p.shift = range [2]uint{0, 32} {
		ampc.FanOut(len(counts), p, packedPass.count)
		var next int32
		for id := range counts[0] {
			for _, c := range counts {
				c[id], next = next, next+c[id]
			}
		}
		ampc.FanOut(len(counts), p, packedPass.scatter)
		p.src, p.dst = p.dst, p.src
	}
}

// packedPass is one SortPacked pass, by the id at shift.
type packedPass struct {
	src, dst []uint64
	counts   [][]int32
	shift    uint
}

func (p packedPass) count(w int) error {
	c := p.counts[w]
	clear(c)
	lo, hi := ampc.BlockRange(w, len(p.src), len(p.counts))
	for _, k := range p.src[lo:hi] {
		c[uint32(k>>p.shift)]++
	}
	return nil
}

func (p packedPass) scatter(w int) error {
	c := p.counts[w]
	lo, hi := ampc.BlockRange(w, len(p.src), len(p.counts))
	for _, k := range p.src[lo:hi] {
		id := uint32(k >> p.shift)
		p.dst[c[id]] = k
		c[id]++
	}
	return nil
}

// MustGraph is NewGraph that panics on error; for tests and generators whose
// inputs are valid by construction.
func MustGraph(n int, edges []Edge) *Graph { return must(NewGraph(n, edges)) }

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Deg returns the degree of vertex v.
func (g *Graph) Deg(v int) int { return g.offs[v+1] - g.offs[v] }

// Neighbors returns the sorted neighbor slice of v. Callers must not modify
// the returned slice.
func (g *Graph) Neighbors(v int) []int { return g.adj[g.offs[v]:g.offs[v+1]] }

// Neighbor returns the i-th neighbor of v.
func (g *Graph) Neighbor(v, i int) int { return g.adj[g.offs[v]+i] }

// Edges returns the canonical sorted edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.EdgeIndex(u, v) >= 0 }

// EdgeIndex returns the position of edge {u, v} in Edges(), or -1 if it is
// absent. The neighbors above u close u's sorted list in the order of its
// canonical edges, which end where u+1's begin.
func (g *Graph) EdgeIndex(u, v int) int {
	u, v = min(u, v), max(u, v)
	if u < 0 || v >= g.n {
		return -1
	}
	ns := g.Neighbors(u)
	i := sort.SearchInts(ns, v)
	if i == len(ns) || ns[i] != v {
		return -1
	}
	return g.first[u+1] - (len(ns) - i)
}

// MaxDeg returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDeg() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Deg(v); d > max {
			max = d
		}
	}
	return max
}

// WeightedEdge is an undirected edge with an integer weight. The paper
// assumes distinct weights so the MSF is unique; generators guarantee that.
type WeightedEdge struct {
	U, V   int
	Weight int64
}

// Canonical returns the edge with endpoints ordered U <= V.
func (e WeightedEdge) Canonical() WeightedEdge {
	if e.U > e.V {
		return WeightedEdge{e.V, e.U, e.Weight}
	}
	return e
}

// WeightedGraph couples a Graph with a weight per canonical edge.
type WeightedGraph struct {
	*Graph
	weights []int64 // weights[i] is the weight of Edges()[i]
}

// NewWeightedGraph builds a weighted graph. Weights must be distinct: the
// paper assumes distinct weights so the minimum spanning forest is unique.
// With several repeated weights, the error names the smallest.
func NewWeightedGraph(n int, edges []WeightedEdge) (*WeightedGraph, error) {
	plain := make([]Edge, len(edges))
	weights := make([]int64, len(edges))
	for i, e := range edges {
		plain[i] = Edge{e.U, e.V}
		weights[i] = e.Weight
	}
	slices.Sort(weights)
	for i := 1; i < len(weights); i++ {
		if weights[i] == weights[i-1] {
			return nil, fmt.Errorf("graph: duplicate weight %d (MSF uniqueness requires distinct weights)", weights[i])
		}
	}
	g, err := NewGraph(n, plain)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		weights[g.EdgeIndex(e.U, e.V)] = e.Weight
	}
	return &WeightedGraph{Graph: g, weights: weights}, nil
}

// MustWeightedGraph is NewWeightedGraph that panics on error.
func MustWeightedGraph(n int, edges []WeightedEdge) *WeightedGraph {
	return must(NewWeightedGraph(n, edges))
}

// Weight returns the weight of edge {u, v}; the edge must exist.
func (g *WeightedGraph) Weight(u, v int) int64 {
	i := g.EdgeIndex(u, v)
	if i < 0 {
		panic(fmt.Sprintf("graph: weight of absent edge {%d,%d}", u, v))
	}
	return g.weights[i]
}

// WeightedEdges returns the canonical edge list with weights.
func (g *WeightedGraph) WeightedEdges() []WeightedEdge {
	out := make([]WeightedEdge, g.M())
	for i, e := range g.Edges() {
		out[i] = WeightedEdge{e.U, e.V, g.weights[i]}
	}
	return out
}

// TotalWeight sums the weights of the given edges.
func TotalWeight(edges []WeightedEdge) int64 {
	var t int64
	for _, e := range edges {
		t += e.Weight
	}
	return t
}
