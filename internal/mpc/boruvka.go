package mpc

import (
	"sort"

	"ampc/internal/ampc"
	"ampc/internal/graph"
)

// MSFResult reports the outcome and cost of the MPC minimum-spanning-forest
// baseline.
type MSFResult struct {
	// Edges is the minimum spanning forest as a canonical edge list.
	Edges []graph.WeightedEdge
	// Rounds is the number of MPC communication rounds used.
	Rounds int
	// Phases is the number of Borůvka phases (each costs three rounds).
	Phases int
}

// BoruvkaMSF computes the minimum spanning forest with Borůvka phases, the
// classic O(log n)-round MPC baseline for Figure 1's MST row.
//
// Each phase costs three MPC rounds:
//  1. every vertex announces its component label to its neighbors;
//  2. every vertex proposes its minimum-weight outgoing edge to its
//     component's root;
//  3. roots pick the overall minimum per component.
//
// A proposal (u, v, w) travels in two words: the index of edge {u, v} in
// g.Edges() and its weight.
//
// Merge resolution (collapsing the pseudo-forest of chosen edges) uses a
// driver-side union-find, standing in for the O(1)-round MPC
// sort-and-aggregate primitives the literature uses for this step; the
// phase count — the quantity Figure 1 compares — is unaffected.
func BoruvkaMSF(g *graph.WeightedGraph, p int) (MSFResult, error) {
	n := g.N()
	rt := newRuntime(p, n, g.M())
	defer rt.Close()

	comp := make([]int, n)
	for v := range comp {
		comp[v] = v
	}
	var msf []graph.WeightedEdge

	for phase := 1; ; phase++ {
		// Round 1: exchange component labels along edges.
		err := rt.MPCRound("boruvka-labels", n, func(m int, _ []ampc.SimMessage, send func(ampc.SimMessage)) {
			lo, hi := ampc.BlockRange(m, n, p)
			for v := lo; v < hi; v++ {
				for _, u := range g.Neighbors(v) {
					send(ampc.SimMessage{Dst: u, A: int64(v), B: int64(comp[v])})
				}
			}
		})
		if err != nil {
			return MSFResult{}, err
		}

		// Round 2: each vertex picks its lightest edge to another component
		// and proposes it to its component root.
		err = rt.MPCRound("boruvka-propose", n, func(_ int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			byItem(inbox, func(v int, labels []ampc.SimMessage) {
				best, bestW := -1, int64(0)
				for _, msg := range labels {
					if int(msg.B) == comp[v] {
						continue
					}
					if w := g.Weight(v, int(msg.A)); best < 0 || w < bestW {
						best, bestW = g.EdgeIndex(v, int(msg.A)), w
					}
				}
				if best >= 0 {
					send(ampc.SimMessage{Dst: comp[v], A: int64(best), B: bestW})
				}
			})
		})
		if err != nil {
			return MSFResult{}, err
		}

		// Round 3: roots select the minimum proposal per component. The
		// chosen edges join the MSF; merged labels are resolved below.
		chosen := make([][]ampc.SimMessage, p)
		err = rt.MPCRound("boruvka-select", n, func(m int, inbox []ampc.SimMessage, _ func(ampc.SimMessage)) {
			byItem(inbox, func(_ int, proposals []ampc.SimMessage) {
				best := proposals[0]
				for _, c := range proposals[1:] {
					if c.B < best.B {
						best = c
					}
				}
				chosen[m] = append(chosen[m], best)
			})
		})
		if err != nil {
			return MSFResult{}, err
		}

		dsu := graph.NewDSU(n)
		for v := 0; v < n; v++ {
			dsu.Union(v, comp[v])
		}
		progress := false
		// Weights are distinct, so the edge set is independent of the order
		// the chosen edges are united in.
		for _, cs := range chosen {
			for _, c := range cs {
				e := g.Edges()[c.A]
				if dsu.Union(e.U, e.V) {
					msf = append(msf, graph.WeightedEdge{U: e.U, V: e.V, Weight: c.B})
					progress = true
				}
			}
		}
		for v := 0; v < n; v++ {
			comp[v] = dsu.Find(v)
		}

		if !progress {
			return MSFResult{Edges: canonicalSort(msf), Rounds: len(rt.Stats()), Phases: phase}, nil
		}
	}
}

func canonicalSort(es []graph.WeightedEdge) []graph.WeightedEdge {
	out := make([]graph.WeightedEdge, len(es))
	copy(out, es)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
