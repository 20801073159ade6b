package mpc

import (
	"ampc/internal/ampc"
	"ampc/internal/graph"
)

// ConnectivityResult reports the outcome and cost of an MPC connectivity
// baseline.
type ConnectivityResult struct {
	// Components labels each vertex with the minimum vertex id of its
	// connected component.
	Components []int
	// Rounds is the number of MPC communication rounds used.
	Rounds int
}

// LabelPropagation computes connected components by iterated minimum-label
// exchange: every vertex repeatedly adopts the smallest label in its closed
// neighborhood. The minimum label of a component spreads one hop per round,
// so the algorithm needs Θ(D) rounds on diameter-D graphs — the behaviour
// Figure 1's "O(log D · ...)" MPC column degrades to for the simple
// baseline, and the gap AMPC closes.
//
// Termination adds one quiet round in which no label changes.
func LabelPropagation(g *graph.Graph, p int) (ConnectivityResult, error) {
	n := g.N()
	rt := newRuntime(p, n, g.M())
	defer rt.Close()
	comp := make([]int, n)
	for v := range comp {
		comp[v] = v
	}

	for {
		changedPer := make([]bool, p)
		next := make([]int, n)
		copy(next, comp)
		// Apply labels received last round, then send current labels.
		err := rt.MPCRound("label-prop", n, func(m int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			for _, msg := range inbox {
				if int(msg.A) < next[msg.Dst] {
					next[msg.Dst] = int(msg.A)
					changedPer[m] = true
				}
			}
			lo, hi := ampc.BlockRange(m, n, p)
			for v := lo; v < hi; v++ {
				for _, u := range g.Neighbors(v) {
					send(ampc.SimMessage{Dst: u, A: int64(next[v])})
				}
			}
		})
		if err != nil {
			return ConnectivityResult{}, err
		}
		comp = next
		changed := false
		for _, c := range changedPer {
			changed = changed || c
		}
		if !changed && len(rt.Stats()) > 1 {
			break
		}
	}
	return ConnectivityResult{Components: comp, Rounds: len(rt.Stats())}, nil
}

// ListRankingResult reports the outcome and cost of MPC list ranking.
type ListRankingResult struct {
	// Rank[v] is the distance from v to the list tail.
	Rank []int
	// Rounds is the number of MPC communication rounds used.
	Rounds int
}

// PointerDoublingListRank ranks a linked list with the classic pointer-
// jumping algorithm: rank[v] += rank[next[v]]; next[v] = next[next[v]].
// Each doubling step costs two MPC rounds (request, reply) plus an apply
// barrier; the step count is ceil(log2 n) — the Θ(log n) MPC baseline that
// AMPC list ranking (O(1/ε) rounds) is measured against.
//
// next[v] = -1 marks the tail. The input must be a single list covering all
// of next's indices.
func PointerDoublingListRank(next []int, p int) (ListRankingResult, error) {
	n := len(next)
	rt := newRuntime(p, n, max(n-1, 0))
	defer rt.Close()
	rank := make([]int, n)
	nxt := make([]int, n)
	for v := range next {
		nxt[v] = next[v]
		if next[v] != -1 {
			rank[v] = 1
		}
	}

	for step := 1; step < n; step *= 2 {
		// Request: every vertex asks its successor, sending its own id.
		err := rt.MPCRound("pd-request", n, func(m int, _ []ampc.SimMessage, send func(ampc.SimMessage)) {
			lo, hi := ampc.BlockRange(m, n, p)
			for v := lo; v < hi; v++ {
				if nxt[v] != -1 {
					send(ampc.SimMessage{Dst: nxt[v], A: int64(v)})
				}
			}
		})
		if err != nil {
			return ListRankingResult{}, err
		}
		// Reply: the successor answers (next-next, rank).
		err = rt.MPCRound("pd-reply", n, func(_ int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			for _, req := range inbox {
				t := req.Dst
				send(ampc.SimMessage{Dst: int(req.A), A: int64(nxt[t]), B: int64(rank[t])})
			}
		})
		if err != nil {
			return ListRankingResult{}, err
		}
		// Apply: a barrier round with no sends.
		err = rt.MPCRound("pd-apply", n, func(_ int, inbox []ampc.SimMessage, _ func(ampc.SimMessage)) {
			for _, rp := range inbox {
				rank[rp.Dst] += int(rp.B)
				nxt[rp.Dst] = int(rp.A)
			}
		})
		if err != nil {
			return ListRankingResult{}, err
		}
	}
	return ListRankingResult{Rank: rank, Rounds: len(rt.Stats())}, nil
}
