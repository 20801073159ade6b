package mpc

import (
	"ampc/internal/ampc"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// MISResult reports the outcome and cost of the MPC MIS baseline.
type MISResult struct {
	// InMIS is the membership vector of the computed maximal independent set.
	InMIS []bool
	// Rounds is the number of MPC communication rounds used.
	Rounds int
	// Iterations is the number of Luby iterations (each costs four rounds).
	Iterations int
}

// LubyMIS computes a maximal independent set with Luby's random-priority
// algorithm, the classic O(log n)-round MPC/PRAM baseline for Figure 1's
// MIS row (the best known MPC bound is Õ(√log n) [Ghaffari–Uitto]; Luby is
// the standard implementable baseline and shares the "grows with n" shape
// that AMPC's O(1) algorithm beats).
//
// Each iteration costs four MPC rounds:
//  1. every live vertex draws a random priority and sends (itself, its
//     priority) to its live neighbors;
//  2. local minima join the MIS and announce it to their neighbors;
//  3. the announced neighbors die and tell their own neighbors to forget
//     them;
//  4. the forget notifications are applied (a synchronization barrier with
//     no sends).
func LubyMIS(g *graph.Graph, p int, r *rng.RNG) (MISResult, error) {
	n := g.N()
	rt := newRuntime(p, n, g.M())
	defer rt.Close()

	alive := make([]bool, n)
	inMIS := make([]bool, n)
	liveNeighbors := make([]map[int]bool, n)
	liveCount := n
	for v := 0; v < n; v++ {
		alive[v] = true
		liveNeighbors[v] = make(map[int]bool, g.Deg(v))
		for _, u := range g.Neighbors(v) {
			liveNeighbors[v][u] = true
		}
	}

	// Per-machine RNG streams derived once so rounds stay deterministic.
	machineRNG := make([]*rng.RNG, p)
	for m := range machineRNG {
		machineRNG[m] = r.Split()
	}

	iterations := 0
	for liveCount > 0 {
		iterations++
		prio := make([]int64, n)

		// Round 1: draw and exchange priorities among live vertices.
		err := rt.MPCRound("luby-priority", n, func(m int, _ []ampc.SimMessage, send func(ampc.SimMessage)) {
			lo, hi := ampc.BlockRange(m, n, p)
			mr := machineRNG[m]
			for v := lo; v < hi; v++ {
				if !alive[v] {
					continue
				}
				prio[v] = mr.Int63()
				for u := range liveNeighbors[v] {
					send(ampc.SimMessage{Dst: u, A: int64(v), B: prio[v]})
				}
			}
		})
		if err != nil {
			return MISResult{}, err
		}

		// Round 2: local minima join the MIS and announce membership.
		// Isolated live vertices (no live neighbors) join unconditionally.
		joined := make([]bool, n)
		err = rt.MPCRound("luby-join", n, func(m int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			minNbr := make(map[int]int64)
			byItem(inbox, func(v int, prios []ampc.SimMessage) {
				best := prios[0].B
				for _, msg := range prios[1:] {
					best = min(best, msg.B)
				}
				minNbr[v] = best
			})
			lo, hi := ampc.BlockRange(m, n, p)
			for v := lo; v < hi; v++ {
				if !alive[v] {
					continue
				}
				best, has := minNbr[v]
				if !has || prio[v] < best {
					joined[v] = true
					for u := range liveNeighbors[v] {
						send(ampc.SimMessage{Dst: u, A: int64(v)})
					}
				}
			}
		})
		if err != nil {
			return MISResult{}, err
		}

		// Round 3: neighbors of winners die and notify their own neighbors.
		died := make([]bool, n)
		err = rt.MPCRound("luby-kill", n, func(_ int, inbox []ampc.SimMessage, send func(ampc.SimMessage)) {
			byItem(inbox, func(v int, _ []ampc.SimMessage) {
				if !alive[v] || joined[v] {
					return
				}
				died[v] = true
				for u := range liveNeighbors[v] {
					send(ampc.SimMessage{Dst: u, A: int64(v)})
				}
			})
		})
		if err != nil {
			return MISResult{}, err
		}

		// Round 4: apply the forget notifications.
		err = rt.MPCRound("luby-forget", n, func(_ int, inbox []ampc.SimMessage, _ func(ampc.SimMessage)) {
			for _, msg := range inbox {
				delete(liveNeighbors[msg.Dst], int(msg.A))
			}
		})
		if err != nil {
			return MISResult{}, err
		}

		for v := 0; v < n; v++ {
			if joined[v] {
				inMIS[v] = true
				alive[v] = false
				liveCount--
			}
			if died[v] {
				alive[v] = false
				liveCount--
			}
		}
	}

	return MISResult{InMIS: inMIS, Rounds: len(rt.Stats()), Iterations: iterations}, nil
}
