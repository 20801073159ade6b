// Network build-out planning: choose the cheapest cable plan connecting all
// sites (minimum spanning forest, §7 of the paper) and then audit the plan's
// fragility — which links are single points of failure (bridges) and which
// sites are single points of failure (articulation points), via the
// BC-labeling pipeline of §9.
//
//	go run ./examples/netdesign
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"ampc"
)

func main() {
	r := ampc.NewRNG(99, 0)

	// Candidate links: a connected random graph over 3000 sites with
	// distinct costs (market quotes).
	const sites = 3000
	g := ampc.WithRandomWeights(ampc.ConnectedGNM(sites, 12000, r), r)
	ctx := context.Background()
	eng := ampc.NewEngine(ampc.EngineOptions{})

	out, err := eng.Run(ctx, ampc.Job{Algo: "msf", Weighted: g, Opts: &ampc.Options{Seed: 8}})
	if err != nil {
		log.Fatal(err)
	}
	msf := out.Payload.(ampc.MSFResult)
	var total int64
	for _, e := range msf.Edges {
		total += e.Weight
	}
	fmt.Printf("candidate links: %d over %d sites\n", g.M(), sites)
	fmt.Printf("build plan: %d links, total cost %d, computed in %d rounds (%d phases)\n",
		len(msf.Edges), total, msf.Telemetry.Rounds, msf.Telemetry.Phases)

	// Sanity: the plan must match the exact sequential optimum.
	oracle := ampc.KruskalMSF(g)
	var oracleTotal int64
	for _, e := range oracle {
		oracleTotal += e.Weight
	}
	if total != oracleTotal || len(msf.Edges) != len(oracle) {
		log.Fatalf("plan cost %d != optimal %d", total, oracleTotal)
	}
	fmt.Println("oracle check: plan is the unique optimum ✓")

	// Fragility audit of the built network (the MSF is a tree: every link
	// is critical). More interesting: audit the plan plus the 2000 cheapest
	// unused links as redundancy.
	used := map[ampc.Edge]bool{}
	for _, e := range msf.Edges {
		used[ampc.Edge{U: e.U, V: e.V}.Canon()] = true
	}
	redundant := append([]ampc.Edge(nil), plainEdges(msf.Edges)...)
	candidates := g.WeightedEdges()
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Weight < candidates[j].Weight })
	added := 0
	for _, we := range candidates {
		if added >= 2000 {
			break
		}
		e := ampc.Edge{U: we.U, V: we.V}.Canon()
		if used[e] {
			continue
		}
		redundant = append(redundant, e)
		added++
	}
	network, err := ampc.NewGraph(sites, redundant)
	if err != nil {
		log.Fatal(err)
	}

	out, err = eng.Run(ctx, ampc.Job{Algo: "biconn", Graph: network, Opts: &ampc.Options{Seed: 9}})
	if err != nil {
		log.Fatal(err)
	}
	audit := out.Payload.(ampc.BiconnResult)
	fmt.Printf("\nredundant network: %d links\n", network.M())
	fmt.Printf("  single-point-of-failure links (bridges): %d\n", len(audit.Bridges))
	fmt.Printf("  single-point-of-failure sites (articulation points): %d\n", len(audit.ArticulationPoints))
	classes := map[int]bool{}
	for _, c := range audit.TwoEdgeComponents {
		classes[c] = true
	}
	fmt.Printf("  2-edge-connected zones: %d\n", len(classes))

	wantBridges := ampc.BridgesOracle(network)
	if len(wantBridges) != len(audit.Bridges) {
		log.Fatalf("audit found %d bridges, oracle %d", len(audit.Bridges), len(wantBridges))
	}
	fmt.Println("oracle check: audit matches Tarjan's algorithm ✓")
}

func plainEdges(wes []ampc.WeightedEdge) []ampc.Edge {
	out := make([]ampc.Edge, len(wes))
	for i, e := range wes {
		out[i] = ampc.Edge{U: e.U, V: e.V}.Canon()
	}
	return out
}
