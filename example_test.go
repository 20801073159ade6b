package ampc_test

import (
	"context"
	"fmt"

	"ampc"
)

// ExampleEngine_Run executes a registered algorithm by name through the
// Engine: the uniform path with cancellation, per-job option overrides,
// streaming telemetry, and oracle verification.
func ExampleEngine_Run() {
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 1}})
	g := ampc.Union(ampc.Cycle(4), ampc.Path(3))
	res, err := eng.Run(context.Background(), ampc.Job{
		Algo:  "connectivity",
		Graph: g,
		Check: true, // verify against the BFS oracle
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Summary)
	fmt.Println("check:", res.Check)
	// Output:
	// 2 components
	// check: passed
}

// ExampleEngine_Run_streaming watches a run's rounds complete in real time
// through the Engine's TelemetryObserver.
func ExampleEngine_Run_streaming() {
	rounds := 0
	eng := ampc.NewEngine(ampc.EngineOptions{
		Defaults: ampc.Options{Seed: 2},
		Observer: func(ev ampc.RoundEvent) { rounds++ },
	})
	res, err := eng.Run(context.Background(), ampc.Job{Algo: "twocycle", Graph: ampc.Cycle(64)})
	if err != nil {
		panic(err)
	}
	fmt.Println("streamed every round:", rounds == res.Telemetry.Rounds)
	// Output:
	// streamed every round: true
}

// ExampleEngine_Run_connectivity labels the components of a small
// disconnected graph.
func ExampleEngine_Run_connectivity() {
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 1}})
	g := ampc.Union(ampc.Cycle(4), ampc.Path(3))
	res, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g})
	if err != nil {
		panic(err)
	}
	labels := map[int]bool{}
	for _, c := range res.Payload.(ampc.ConnectivityResult).Components {
		labels[c] = true
	}
	fmt.Println("components:", len(labels))
	// Output:
	// components: 2
}

// ExampleEngine_Run_twoCycle diagnoses whether a 2-regular graph is one
// ring or two.
func ExampleEngine_Run_twoCycle() {
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 2}})
	r := ampc.NewRNG(7, 0)
	one := ampc.TwoCycleInstance(64, true, r)
	two := ampc.TwoCycleInstance(64, false, r)

	a, err := eng.Run(context.Background(), ampc.Job{Algo: "twocycle", Graph: one})
	if err != nil {
		panic(err)
	}
	b, err := eng.Run(context.Background(), ampc.Job{Algo: "twocycle", Graph: two})
	if err != nil {
		panic(err)
	}
	fmt.Println("one ring:", a.Payload.(ampc.TwoCycleResult).SingleCycle)
	fmt.Println("two rings:", !b.Payload.(ampc.TwoCycleResult).SingleCycle)
	// Output:
	// one ring: true
	// two rings: true
}

// ExampleEngine_Run_msf builds the unique minimum spanning forest of a
// weighted graph.
func ExampleEngine_Run_msf() {
	g, err := ampc.NewWeightedGraph(4, []ampc.WeightedEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 2},
		{U: 2, V: 3, Weight: 3},
		{U: 3, V: 0, Weight: 4},
	})
	if err != nil {
		panic(err)
	}
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 3}})
	res, err := eng.Run(context.Background(), ampc.Job{Algo: "msf", Weighted: g})
	if err != nil {
		panic(err)
	}
	edges := res.Payload.(ampc.MSFResult).Edges
	var total int64
	for _, e := range edges {
		total += e.Weight
	}
	fmt.Println("edges:", len(edges), "weight:", total)
	// Output:
	// edges: 3 weight: 6
}

// ExampleEngine_Run_listRanking positions every element of a linked list.
func ExampleEngine_Run_listRanking() {
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 4}})
	// The list 3 -> 0 -> 2 -> 1.
	next := []int{2, -1, 1, 0}
	res, err := eng.Run(context.Background(), ampc.Job{Algo: "listrank", Next: next})
	if err != nil {
		panic(err)
	}
	fmt.Println("ranks:", res.Payload.(ampc.ListRankingResult).Rank)
	// Output:
	// ranks: [1 3 2 0]
}
