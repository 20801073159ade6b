package graph

// A map-and-sort input path, kept as the reference the generators and
// NewGraph are compared against (TestGeneratorsMatchMapOracle,
// TestNewGraphMatchesSortOracle): every generator deduplicates through a
// map[Edge]bool, and sortNewGraph orders the canonical edges with sort.Slice
// and each adjacency list with sort.Ints.

import (
	"fmt"
	"math"
	"sort"

	"ampc/internal/rng"
)

// sortNewGraph builds a CSR graph on n vertices from an edge list. It returns an
// error for out-of-range endpoints, self-loops, or duplicate edges.
func sortNewGraph(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int, n)
	canon := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		canon[i] = e.Canon()
		deg[e.U]++
		deg[e.V]++
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge %v", canon[i])
		}
	}
	g := &Graph{n: n, offs: make([]int, n+1), adj: make([]int, 2*len(edges)), edges: canon}
	for v := 0; v < n; v++ {
		g.offs[v+1] = g.offs[v] + deg[v]
	}
	fill := make([]int, n)
	copy(fill, g.offs[:n])
	for _, e := range canon {
		g.adj[fill[e.U]] = e.V
		fill[e.U]++
		g.adj[fill[e.V]] = e.U
		fill[e.V]++
	}
	for v := 0; v < n; v++ {
		sort.Ints(g.adj[g.offs[v]:g.offs[v+1]])
	}
	return g, nil
}

// sortMustGraph is sortNewGraph that panics on error; for tests and generators whose
// inputs are valid by construction.
func sortMustGraph(n int, edges []Edge) *Graph {
	g, err := sortNewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// mapGNM returns a uniformly random simple graph with n vertices and m distinct
// edges (an Erdős–Rényi G(n, m) sample).
func mapGNM(n, m int, r *rng.RNG) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: mapGNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		e := Edge{u, v}.Canon()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return sortMustGraph(n, edges)
}

// mapConnectedGNM returns a connected random graph: a random attachment tree
// plus m-(n-1) additional uniform edges. m must lie in [n-1, n(n-1)/2].
func mapConnectedGNM(n, m int, r *rng.RNG) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: mapConnectedGNM needs m >= n-1, got n=%d m=%d", n, m))
	}
	if maxM := n * (n - 1) / 2; m > maxM {
		panic(fmt.Sprintf("graph: mapConnectedGNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	for i := 1; i < n; i++ {
		e := Edge{i, r.Intn(i)}.Canon()
		seen[e] = true
		edges = append(edges, e)
	}
	for len(edges) < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		e := Edge{u, v}.Canon()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return sortMustGraph(n, edges)
}

// mapChungLu returns a random graph with an approximately power-law degree
// profile: vertex v gets expected weight proportional to (v+1)^{-1/(gamma-1)}
// and edges are sampled by weighted endpoint choice, rejecting duplicates
// and self-loops. gamma around 2.5 gives the long-tailed degree
// distributions of social and web graphs, the workload class that motivated
// the AMPC line of systems.
func mapChungLu(n, m int, gamma float64, r *rng.RNG) *Graph {
	if gamma <= 1 {
		panic("graph: mapChungLu needs gamma > 1")
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: mapChungLu m=%d exceeds max %d for n=%d", m, maxM, n))
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
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	attempts := 0
	for len(edges) < m {
		if attempts++; attempts > 200*m+1000 {
			// Degenerate parameters (tiny n, huge m): fall back to uniform
			// fill so the generator always terminates.
			for u := 0; u < n && len(edges) < m; u++ {
				for v := u + 1; v < n && len(edges) < m; v++ {
					e := Edge{u, v}
					if !seen[e] {
						seen[e] = true
						edges = append(edges, e)
					}
				}
			}
			break
		}
		u, v := pick(), pick()
		if u == v {
			continue
		}
		e := Edge{u, v}.Canon()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return sortMustGraph(n, edges)
}

// mapSkewedDegree returns a random simple graph whose edges concentrate on a
// small hub set: each edge picks one endpoint uniformly among the first
// hubs vertices and the other uniformly among all n. A hub's adjacency key
// holds ~m/hubs values — the dup-heavy key distribution — and since a
// key's values live on one shard, the store's shard load is maximally
// skewed: the adversarial distribution the highload scenario drives.
func mapSkewedDegree(n, m, hubs int, r *rng.RNG) *Graph {
	if hubs <= 0 || hubs > n {
		panic(fmt.Sprintf("graph: mapSkewedDegree needs 1 <= hubs <= n, got hubs=%d n=%d", hubs, n))
	}
	maxM := hubs*(n-hubs) + hubs*(hubs-1)/2
	if m > maxM {
		panic(fmt.Sprintf("graph: mapSkewedDegree m=%d exceeds max %d for n=%d hubs=%d", m, maxM, n, hubs))
	}
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	attempts := 0
	for len(edges) < m {
		if attempts++; attempts > 200*m+1000 {
			// Degenerate parameters (m near the hub-incident maximum): fill
			// deterministically so the generator always terminates.
			for u := 0; u < hubs && len(edges) < m; u++ {
				for v := u + 1; v < n && len(edges) < m; v++ {
					e := Edge{u, v}
					if !seen[e] {
						seen[e] = true
						edges = append(edges, e)
					}
				}
			}
			break
		}
		u, v := r.Intn(hubs), r.Intn(n)
		if u == v {
			continue
		}
		e := Edge{u, v}.Canon()
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return sortMustGraph(n, edges)
}

// mapBipartite returns a random bipartite graph with sides of size a and b and
// m distinct edges.
func mapBipartite(a, b, m int, r *rng.RNG) *Graph {
	if m > a*b {
		panic(fmt.Sprintf("graph: mapBipartite m=%d exceeds max %d", m, a*b))
	}
	seen := make(map[Edge]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := r.Intn(a)
		v := a + r.Intn(b)
		e := Edge{u, v}
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return sortMustGraph(a+b, edges)
}
