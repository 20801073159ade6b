package core

import (
	"context"
	"fmt"
	"sort"

	"ampc/internal/graph"
)

// ForestConnectivityResult reports the outcome and cost of the forest
// connectivity algorithm.
type ForestConnectivityResult struct {
	// Components labels every vertex with a canonical representative of its
	// tree (isolated vertices label themselves).
	Components []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// ForestConnectivity computes connected components of a forest in O(1/ε)
// rounds (§8, Theorem 5): each tree is transformed into a cycle via its
// Euler tour (the Tarjan–Vishkin construction, implementable in O(1) MPC
// rounds, Lemma 8.6), and the resulting collection of disjoint cycles is
// solved with CycleConnectivity.
func ForestConnectivity(ctx context.Context, g *graph.Graph, opts Options) (ForestConnectivityResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ForestConnectivityResult{}, err
	}
	if !graph.IsForest(g) {
		return ForestConnectivityResult{}, fmt.Errorf("core: forest connectivity input has a cycle")
	}

	rt := opts.newRuntime(ctx, 2*g.M()+1, 2*g.M())
	defer rt.Close()
	et := eulerTours(g)
	driver := opts.driverRNG(2)

	comp := make([]int, g.N())
	for v := range comp {
		comp[v] = v // isolated vertices keep their own label
	}
	phases := 0
	if g.M() > 0 {
		labels, iters, err := cycleConnLabels(rt, et.asCycleGraph(), 2*g.M(), opts, driver)
		if err != nil {
			return ForestConnectivityResult{}, err
		}
		// A vertex inherits the label of any dart leaving it; all its darts
		// share a tour cycle, so any choice is consistent. Dart labels are
		// offset past the vertex-id range so they can never collide with
		// the self-labels of isolated vertices.
		for v := 0; v < g.N(); v++ {
			if g.Deg(v) > 0 {
				comp[v] = g.N() + labels[et.dartID(v, 0)]
			}
		}
		phases = iters
	}
	return ForestConnectivityResult{
		Components: comp,
		Telemetry:  telemetryFrom(rt, phases),
	}, nil
}

// eulerTour holds the dart structure of a forest. Dart 2i is the canonical
// edge i traversed U->V; dart 2i+1 is V->U. The Euler tour successor of a
// dart entering vertex w via edge e is the dart leaving w via the edge
// after e in w's (cyclic, sorted) adjacency order — the Tarjan–Vishkin
// construction, which covers each tree with exactly one tour cycle.
type eulerTour struct {
	g *graph.Graph
	// succ and pred give the tour cycle through all 2m darts.
	succ, pred []int
}

// eulerTours builds the dart structure of forest g.
func eulerTours(g *graph.Graph) *eulerTour {
	m := g.M()
	et := &eulerTour{g: g, succ: make([]int, 2*m), pred: make([]int, 2*m)}
	for d := 0; d < 2*m; d++ {
		// The dart arrives at `head`; it continues along the neighbor that
		// follows the dart's tail in head's sorted adjacency, cyclically.
		tail, head := et.endpoints(d)
		ns := g.Neighbors(head)
		s := et.dartID(head, (sort.SearchInts(ns, tail)+1)%len(ns))
		et.succ[d] = s
		et.pred[s] = d
	}
	return et
}

// endpoints returns the (tail, head) vertices of dart d.
func (et *eulerTour) endpoints(d int) (tail, head int) {
	e := et.g.Edges()[d/2]
	if d%2 == 0 {
		return e.U, e.V
	}
	return e.V, e.U
}

// dartID returns the dart leaving v toward its i-th neighbor.
func (et *eulerTour) dartID(v, i int) int {
	u := et.g.Neighbor(v, i)
	d := 2 * et.g.EdgeIndex(v, u)
	if v > u {
		d++
	}
	return d
}

// asCycleGraph views the tour cycles as an undirected cycle graph on darts:
// each dart's two cycle neighbors are its successor and predecessor.
func (et *eulerTour) asCycleGraph() *cycleGraph {
	cg := &cycleGraph{adj: make(map[int][2]int, len(et.succ))}
	for d := range et.succ {
		cg.verts = append(cg.verts, d)
		cg.adj[d] = [2]int{et.succ[d], et.pred[d]}
	}
	return cg
}
