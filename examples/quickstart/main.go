// Quickstart: run the AMPC connectivity algorithm on a random graph and
// inspect the telemetry the simulator reports.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ampc"
)

func main() {
	// A random graph with three planted components.
	r := ampc.NewRNG(2026, 0)
	g := ampc.Union(
		ampc.ConnectedGNM(4000, 16000, r),
		ampc.ConnectedGNM(2500, 9000, r),
		ampc.ConnectedGNM(1500, 5000, r),
	)
	g = ampc.Relabel(g, r.Perm(g.N())) // hide the component structure

	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 1, Epsilon: 0.5}})
	res, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g})
	if err != nil {
		log.Fatal(err)
	}

	sizes := map[int]int{}
	for _, c := range res.Labels {
		sizes[c]++
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("components found: %d\n", len(sizes))
	for label, size := range sizes {
		fmt.Printf("  component %-6d size %d\n", label, size)
	}

	t := res.Telemetry
	fmt.Printf("\nAMPC cost (P=%d machines, S=%d words each):\n", t.P, t.S)
	fmt.Printf("  rounds           %d\n", t.Rounds)
	fmt.Printf("  phases           %d\n", t.Phases)
	fmt.Printf("  total queries    %d  (%.2f per edge)\n", t.TotalQueries,
		float64(t.TotalQueries)/float64(g.M()))
	fmt.Printf("  max machine load %d queries/round (budget-enforced)\n", t.MaxMachineQueries)
	fmt.Printf("  max shard load   %d queries/round (Lemma 2.1 contention)\n", t.MaxShardLoad)

	// Cross-check against the exact sequential oracle.
	if ampc.SameLabeling(res.Labels, ampc.Components(g)) {
		fmt.Println("\noracle check: labeling matches sequential BFS ✓")
	} else {
		log.Fatal("oracle check FAILED")
	}
}
