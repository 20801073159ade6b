package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ampc/internal/rng"
)

// Cycle returns a single cycle 0-1-2-...-(n-1)-0. n must be at least 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{i, (i + 1) % n}
	}
	return MustGraph(n, edges)
}

// TwoCycles returns a graph on n vertices consisting of two disjoint cycles
// of n/2 vertices each. n must be even and at least 6. Together with Cycle
// this generates the two families of the 2-Cycle problem.
func TwoCycles(n int) *Graph {
	if n < 6 || n%2 != 0 {
		panic(fmt.Sprintf("graph: two-cycles needs even n >= 6, got %d", n))
	}
	h := n / 2
	edges := make([]Edge, 0, n)
	for i := 0; i < h; i++ {
		edges = append(edges, Edge{i, (i + 1) % h})
	}
	for i := 0; i < h; i++ {
		edges = append(edges, Edge{h + i, h + (i+1)%h})
	}
	return MustGraph(n, edges)
}

// TwoCycleInstance returns a 2-Cycle problem instance with vertex labels
// randomly permuted: one n-cycle if single is true, otherwise two
// n/2-cycles. Permuting hides the answer from label-structure shortcuts.
func TwoCycleInstance(n int, single bool, r *rng.RNG) *Graph {
	var base *Graph
	if single {
		base = Cycle(n)
	} else {
		base = TwoCycles(n)
	}
	return Relabel(base, r.Perm(n))
}

// Relabel returns an isomorphic copy of g with vertex i renamed to perm[i].
func Relabel(g *Graph, perm []int) *Graph {
	if len(perm) != g.N() {
		panic("graph: permutation length mismatch")
	}
	edges := make([]Edge, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, Edge{perm[e.U], perm[e.V]})
	}
	return MustGraph(g.N(), edges)
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return MustGraph(n, edges)
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, i})
	}
	return MustGraph(n, edges)
}

// Clique returns the complete graph on n vertices.
func Clique(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return MustGraph(n, edges)
}

// Grid returns the rows x cols grid graph, a natural high-diameter workload
// (D = rows+cols-2) for contrasting label propagation with AMPC connectivity.
func Grid(rows, cols int) *Graph {
	id := func(r, c int) int { return r*cols + c }
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return MustGraph(rows*cols, edges)
}

// RandomTree returns a uniformly random labeled tree on n vertices, built by
// sampling a Prüfer-like attachment: vertex i attaches to a uniform earlier
// vertex. (Attachment trees are not uniform over all labeled trees but give
// the realistic long-tailed degree profile we want for tree workloads.)
func RandomTree(n int, r *rng.RNG) *Graph {
	if n <= 0 {
		panic("graph: RandomTree needs n >= 1")
	}
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{i, r.Intn(i)})
	}
	return MustGraph(n, edges)
}

// RandomForest returns a forest of trees random trees totalling n vertices,
// with vertex labels permuted so component structure is hidden.
func RandomForest(n, trees int, r *rng.RNG) *Graph {
	if trees <= 0 || trees > n {
		panic(fmt.Sprintf("graph: RandomForest needs 1 <= trees <= n, got trees=%d n=%d", trees, n))
	}
	// Split n vertices into `trees` nonempty parts.
	sizes := make([]int, trees)
	for i := range sizes {
		sizes[i] = 1
	}
	for extra := n - trees; extra > 0; extra-- {
		sizes[r.Intn(trees)]++
	}
	var edges []Edge
	base := 0
	for _, sz := range sizes {
		for i := 1; i < sz; i++ {
			edges = append(edges, Edge{base + i, base + r.Intn(i)})
		}
		base += sz
	}
	return Relabel(MustGraph(n, edges), r.Perm(n))
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs leaves attached to each spine vertex. Deep-plus-bushy trees exercise
// Euler-tour code paths well.
func Caterpillar(spine, legs int) *Graph {
	n := spine * (legs + 1)
	var edges []Edge
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, Edge{i, next})
			next++
		}
	}
	return MustGraph(n, edges)
}

// GNM returns a uniformly random simple graph with n vertices and m distinct
// edges (an Erdős–Rényi G(n, m) sample): the first m distinct draws of a
// uniform endpoint pair, rng consumption identical to deduplicating through
// a Go map.
func GNM(n, m int, r *rng.RNG) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: GNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	return sampleGraph(n, m, -1, nil, func() (int, int) { return r.Intn(n), r.Intn(n) })
}

// ConnectedGNM returns a connected random graph: a random attachment tree
// plus m-(n-1) additional uniform edges, the first distinct draws not in the
// tree (rng consumption identical to deduplicating through a Go map). m must
// lie in [n-1, n(n-1)/2].
func ConnectedGNM(n, m int, r *rng.RNG) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: ConnectedGNM needs m >= n-1, got n=%d m=%d", n, m))
	}
	if maxM := n * (n - 1) / 2; m > maxM {
		panic(fmt.Sprintf("graph: ConnectedGNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	keys := make([]uint64, 0, m)
	for i := 1; i < n; i++ {
		keys = append(keys, packEdge(i, r.Intn(i)))
	}
	return sampleGraph(n, m, -1, keys, func() (int, int) { return r.Intn(n), r.Intn(n) })
}

// edgeSet is an open-addressed set of packed canonical edges: a flat table
// at most half full, holding key+1 so that 0 marks an empty slot, probed
// linearly from a multiplicative hash of the key.
type edgeSet struct {
	slots []uint64
	shift uint
}

func newEdgeSet(m int) edgeSet {
	b := bits.Len(uint(2 * m))
	return edgeSet{slots: make([]uint64, 1<<b), shift: uint(64 - b)}
}

// add inserts k and reports whether it was absent.
func (s edgeSet) add(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k + 1
			return true
		case k + 1:
			return false
		}
	}
}

// sampleGraph is the random generators' one sampling loop: the graph on n
// vertices of m distinct edges, the packed keys already in keys and then the
// first distinct draws, skipping self-loops. After limit draws (never, if
// limit < 0) it takes the pairs {u, v}, u < v < n, in lexicographic order
// instead, so degenerate parameters terminate; the pairs a generator admits
// must come first in that order. Draws are batched (so their inserts' cache
// misses overlap), each batch stopping at the keys still missing and at the
// limit: every draw, and the rng state after, is the one a loop
// deduplicating through a Go map would make.
func sampleGraph(n, m, limit int, keys []uint64, draw func() (u, v int)) *Graph {
	keys = slices.Grow(keys, max(m-len(keys), 0))
	set := newEdgeSet(cap(keys))
	for _, k := range keys {
		set.add(k)
	}
	var batch [64]uint64
	for len(keys) < m {
		if limit == 0 {
			limit = -1
			u, v := 0, 0
			draw = func() (int, int) {
				if v++; v == n {
					u++
					v = u + 1
				}
				return u, v
			}
		}
		b := min(len(batch), m-len(keys))
		if limit > 0 {
			b = min(b, limit)
			limit -= b
		}
		for j := range batch[:b] {
			batch[j] = packEdge(draw())
		}
		for _, k := range batch[:b] {
			if k>>32 != k&math.MaxUint32 && set.add(k) { // equal halves: a self-loop
				keys = append(keys, k)
			}
		}
	}
	return must(fromKeys(n, keys))
}

// ChungLu returns a random graph with an approximately power-law degree
// profile: vertex v gets expected weight proportional to (v+1)^{-1/(gamma-1)}
// and edges are sampled by weighted endpoint choice, rejecting duplicates
// and self-loops: the first m distinct draws, rng consumption identical to
// deduplicating through a Go map. gamma around 2.5 gives the long-tailed
// degree distributions of social and web graphs, the workload class that
// motivated the AMPC line of systems.
func ChungLu(n, m int, gamma float64, r *rng.RNG) *Graph {
	if gamma <= 1 {
		panic("graph: ChungLu needs gamma > 1")
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: ChungLu m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	// Cumulative weights for inverse-transform sampling.
	cum := make([]float64, n+1)
	exp := -1.0 / (gamma - 1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + math.Pow(float64(i+1), exp)
	}
	pick := func() int {
		x := r.Float64() * cum[n]
		lo, hi := 0, n
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= x {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	return sampleGraph(n, m, 200*m+1000, nil, func() (int, int) { return pick(), pick() })
}

// PowerLaw returns a ChungLu sample at gamma 2.5, the long-tailed degree
// profile of social and web graphs — the workload axis the chaos grid
// sweeps next to gnm/cgnm. The fixed gamma keeps the workload
// regenerable from (kind, n, m, seed) alone.
func PowerLaw(n, m int, r *rng.RNG) *Graph {
	return ChungLu(n, m, 2.5, r)
}

// HubCount returns the hub-set size the "skew" workload kind uses for n
// vertices: 1% of the graph, at least one vertex. Fixed here so every
// consumer (ampcrun, the chaos grid) regenerates identical graphs from
// (kind, n, m, seed).
func HubCount(n int) int {
	if h := n / 100; h > 1 {
		return h
	}
	return 1
}

// SkewedDegree returns a random simple graph whose edges concentrate on a
// small hub set: each edge picks one endpoint uniformly among the first
// hubs vertices and the other uniformly among all n. A hub's adjacency key
// holds ~m/hubs values — the dup-heavy key distribution — and since a
// key's values live on one shard, the store's shard load is maximally
// skewed: the adversarial distribution the highload scenario drives. The
// edges are the first m distinct draws, rng consumption identical to
// deduplicating through a Go map.
func SkewedDegree(n, m, hubs int, r *rng.RNG) *Graph {
	if hubs <= 0 || hubs > n {
		panic(fmt.Sprintf("graph: SkewedDegree needs 1 <= hubs <= n, got hubs=%d n=%d", hubs, n))
	}
	maxM := hubs*(n-hubs) + hubs*(hubs-1)/2
	if m > maxM {
		panic(fmt.Sprintf("graph: SkewedDegree m=%d exceeds max %d for n=%d hubs=%d", m, maxM, n, hubs))
	}
	return sampleGraph(n, m, 200*m+1000, nil, func() (int, int) { return r.Intn(hubs), r.Intn(n) })
}

// Bipartite returns a random bipartite graph with sides of size a and b and
// m distinct edges: the first m distinct draws, rng consumption identical to
// deduplicating through a Go map.
func Bipartite(a, b, m int, r *rng.RNG) *Graph {
	if m > a*b {
		panic(fmt.Sprintf("graph: Bipartite m=%d exceeds max %d", m, a*b))
	}
	return sampleGraph(a+b, m, -1, nil, func() (int, int) { return r.Intn(a), a + r.Intn(b) })
}

// WithRandomWeights assigns distinct random weights to the edges of g by
// shuffling the ranks 1..m and scaling, producing a weighted graph with a
// unique MSF.
func WithRandomWeights(g *Graph, r *rng.RNG) *WeightedGraph {
	ws := make([]int64, g.M())
	for i, rank := range r.Perm(g.M()) {
		ws[i] = int64(rank) + 1
	}
	return &WeightedGraph{Graph: g, weights: ws}
}

// Union returns the disjoint union of graphs, relabeling the vertices of
// later graphs after earlier ones.
func Union(gs ...*Graph) *Graph {
	n := 0
	var edges []Edge
	for _, g := range gs {
		for _, e := range g.Edges() {
			edges = append(edges, Edge{e.U + n, e.V + n})
		}
		n += g.N()
	}
	return MustGraph(n, edges)
}
