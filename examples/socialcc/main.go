// Social-network analysis: community detection by connected components plus
// an independent "seed set" via maximal independent set — the workload class
// (MapReduce + DHT connected components) that motivated the AMPC model
// [Kiveris et al. 2014].
//
// The synthetic network has dense communities joined by sparse weak ties;
// removing the weak ties and running AMPC connectivity recovers the
// communities, and AMPC MIS picks a maximal set of pairwise non-adjacent
// "seed" users for a promotion campaign inside each community.
//
//	go run ./examples/socialcc
package main

import (
	"context"
	"fmt"
	"log"

	"ampc"
)

const (
	communities   = 8
	communitySize = 600
)

func main() {
	r := ampc.NewRNG(7, 0)

	// Dense communities...
	var parts []*ampc.Graph
	for c := 0; c < communities; c++ {
		parts = append(parts, ampc.ConnectedGNM(communitySize, 6*communitySize, r))
	}
	clusters := ampc.Union(parts...)

	// ...joined by a handful of weak ties between consecutive communities.
	n := clusters.N()
	edges := append([]ampc.Edge(nil), clusters.Edges()...)
	var weakTies []ampc.Edge
	for c := 0; c+1 < communities; c++ {
		for k := 0; k < 2; k++ {
			e := ampc.Edge{
				U: c*communitySize + r.Intn(communitySize),
				V: (c+1)*communitySize + r.Intn(communitySize),
			}
			weakTies = append(weakTies, e)
			edges = append(edges, e)
		}
	}
	full, err := ampc.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}

	// Whole-network connectivity: one giant component.
	ctx := context.Background()
	eng := ampc.NewEngine(ampc.EngineOptions{})
	conn, err := eng.Run(ctx, ampc.Job{Algo: "connectivity", Graph: full, Opts: &ampc.Options{Seed: 3}})
	if err != nil {
		log.Fatal(err)
	}
	giant := map[int]bool{}
	for _, c := range conn.Labels {
		giant[c] = true
	}
	fmt.Printf("full network: n=%d m=%d, %d component(s), %d rounds\n",
		full.N(), full.M(), len(giant), conn.Telemetry.Rounds)

	// Drop the weak ties and re-run: the communities reappear.
	weak := map[ampc.Edge]bool{}
	for _, e := range weakTies {
		weak[e.Canon()] = true
	}
	var strong []ampc.Edge
	for _, e := range full.Edges() {
		if !weak[e] {
			strong = append(strong, e)
		}
	}
	strongG, err := ampc.NewGraph(n, strong)
	if err != nil {
		log.Fatal(err)
	}
	comm, err := eng.Run(ctx, ampc.Job{Algo: "connectivity", Graph: strongG, Opts: &ampc.Options{Seed: 4}})
	if err != nil {
		log.Fatal(err)
	}
	commSizes := map[int]int{}
	for _, c := range comm.Labels {
		commSizes[c]++
	}
	fmt.Printf("without weak ties: %d communities (expected %d), %d rounds\n",
		len(commSizes), communities, comm.Telemetry.Rounds)

	// Seed users: a maximal independent set of the full network — no two
	// seeds are friends, and every user has a seed friend (or is one).
	out, err := eng.Run(ctx, ampc.Job{Algo: "mis", Graph: full, Opts: &ampc.Options{Seed: 5}})
	if err != nil {
		log.Fatal(err)
	}
	mis := out.Payload.(ampc.MISResult)
	seeds := 0
	perCommunity := map[int]int{}
	for v, in := range mis.InMIS {
		if in {
			seeds++
			perCommunity[comm.Labels[v]]++
		}
	}
	fmt.Printf("seed set: %d users (%.1f%% of network), %d MIS iterations\n",
		seeds, 100*float64(seeds)/float64(n), mis.Telemetry.Phases)
	minS, maxS := n, 0
	for _, s := range perCommunity {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	fmt.Printf("seeds per community: min %d, max %d\n", minS, maxS)

	if !ampc.IsMIS(full, mis.InMIS) {
		log.Fatal("seed set is not a valid MIS")
	}
	fmt.Println("oracle check: seed set is independent and maximal ✓")
}
