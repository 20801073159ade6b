// Ring-topology diagnosis: the 2-Cycle problem in the wild. A token-ring
// style network should form ONE ring over all nodes; a common mis-wiring
// splits it into two disjoint rings, which is invisible to any local check
// because every node still has exactly two healthy links. Deciding "one
// ring or two" is exactly the paper's 2-Cycle problem (§4): conjectured to
// need Ω(log n) rounds in MPC, solved in O(1/ε) rounds in AMPC.
//
// The example also ranks every node's position along its ring (list
// ranking, §8.1) to emit a repair work order.
//
//	go run ./examples/ringdiag
package main

import (
	"context"
	"fmt"
	"log"

	"ampc"
)

func main() {
	const nodes = 1 << 14
	ctx := context.Background()
	eng := ampc.NewEngine(ampc.EngineOptions{})

	for scenario, healthy := range map[string]bool{"healthy ring": true, "mis-wired ring": false} {
		r := ampc.NewRNG(123, 0)
		g := ampc.TwoCycleInstance(nodes, healthy, r)

		out, err := eng.Run(ctx, ampc.Job{Algo: "twocycle", Graph: g, Opts: &ampc.Options{Seed: 42}})
		if err != nil {
			log.Fatal(err)
		}
		res := out.Payload.(ampc.TwoCycleResult)
		verdict := "OK: single ring"
		if !res.SingleCycle {
			verdict = "FAULT: ring is split in two"
		}
		fmt.Printf("%-15s -> %-28s (%d AMPC rounds, %d queries)\n",
			scenario, verdict, res.Telemetry.Rounds, res.Telemetry.TotalQueries)
		if res.SingleCycle != healthy {
			log.Fatalf("%s: wrong diagnosis", scenario)
		}
	}

	// Work order: number the nodes along the ring from node 0 so a
	// technician can walk it. Orient the ring into a linked list by
	// breaking it at node 0, then list-rank.
	r := ampc.NewRNG(123, 0)
	g := ampc.TwoCycleInstance(nodes, true, r)
	next := make([]int, g.N())
	prev, cur := -1, 0
	for {
		ns := g.Neighbors(cur)
		nxt := ns[0]
		if nxt == prev {
			nxt = ns[1]
		}
		if nxt == 0 {
			next[cur] = -1 // break the ring at the starting node
			break
		}
		next[cur] = nxt
		prev, cur = cur, nxt
	}
	lr, err := eng.Run(ctx, ampc.Job{Algo: "listrank", Next: next, Opts: &ampc.Options{Seed: 43}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwork order: %d nodes position-ranked in %d AMPC rounds\n",
		g.N(), lr.Telemetry.Rounds)
	for _, v := range []int{0, 1, 17, 4096} {
		fmt.Printf("  node %-5d is at ring position %d\n", v, lr.Labels[v])
	}
}
