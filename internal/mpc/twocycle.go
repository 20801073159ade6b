package mpc

import (
	"fmt"
	"math/bits"

	"ampc/internal/ampc"
	"ampc/internal/graph"
)

// TwoCycleResult reports the outcome and cost of the MPC 2-Cycle baseline.
type TwoCycleResult struct {
	// SingleCycle is true when the input is one n-cycle, false for two.
	SingleCycle bool
	// Rounds is the number of MPC communication rounds used.
	Rounds int
}

// TwoCycle solves the 2-Cycle problem with pointer doubling over darts — the
// classic Θ(log n) MPC approach whose round complexity the 2-Cycle
// conjecture says is optimal in MPC.
//
// Each undirected edge of the 2-regular input contributes two darts
// (directed traversal states). The successor of a dart (u -> v) is (v -> w)
// with w the neighbor of v other than u, so darts form directed cycles that
// cover each undirected cycle twice. Pointer doubling propagates the minimum
// origin vertex around every dart cycle in ceil(log2(2n)) doubling steps;
// each step costs two MPC rounds (pointer-read request, reply) plus an
// apply barrier. Messages are addressed to darts. The input is a single
// cycle iff all vertices end with the same cycle-minimum.
func TwoCycle(g *graph.Graph, p int) (TwoCycleResult, error) {
	n := g.N()
	for v := 0; v < n; v++ {
		if g.Deg(v) != 2 {
			return TwoCycleResult{}, fmt.Errorf("mpc: 2-cycle input must be 2-regular, vertex %d has degree %d", v, g.Deg(v))
		}
	}

	// Dart d = 2v + i is the traversal leaving v toward its i-th neighbor.
	nd := 2 * n
	next := make([]int, nd)
	mn := make([]int64, nd)
	for v := 0; v < n; v++ {
		for i := 0; i < 2; i++ {
			d := 2*v + i
			u := g.Neighbor(v, i)
			// Successor leaves u by the neighbor that is not v.
			j := 0
			if g.Neighbor(u, 0) == v {
				j = 1
			}
			next[d] = 2*u + j
			mn[d] = int64(v)
		}
	}

	rt := newRuntime(p, nd, n)
	defer rt.Close()
	steps := bits.Len(uint(nd)) // ceil(log2(2n)) + O(1)
	for s := 0; s < steps; s++ {
		// Request: dart d asks next[d] for (next[next[d]], mn[next[d]]).
		err := rt.MPCRound("2cycle-request", nd, func(m int, _ []ampc.SimMessage, send func(ampc.SimMessage)) {
			lo, hi := ampc.BlockRange(m, nd, p)
			for d := lo; d < hi; d++ {
				send(ampc.SimMessage{Dst: next[d], A: int64(d)})
			}
		})
		if err != nil {
			return TwoCycleResult{}, err
		}
		// Reply: serve the requests from local state.
		err = rt.MPCRound("2cycle-reply", nd, func(_ int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			for _, req := range inbox {
				t := req.Dst
				send(ampc.SimMessage{Dst: int(req.A), A: int64(next[t]), B: mn[t]})
			}
		})
		if err != nil {
			return TwoCycleResult{}, err
		}
		// Apply: a synchronization barrier that sends nothing, which the
		// round count includes — MPC implementations pay it too.
		err = rt.MPCRound("2cycle-apply", nd, func(_ int, inbox []ampc.SimMessage, _ func(ampc.SimMessage)) {
			for _, rp := range inbox {
				mn[rp.Dst] = min(mn[rp.Dst], rp.B)
				next[rp.Dst] = int(rp.A)
			}
		})
		if err != nil {
			return TwoCycleResult{}, err
		}
	}

	seen := make(map[int64]bool)
	for v := 0; v < n; v++ {
		seen[min(mn[2*v], mn[2*v+1])] = true
	}
	return TwoCycleResult{SingleCycle: len(seen) == 1, Rounds: len(rt.Stats())}, nil
}
