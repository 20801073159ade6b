// Conflict scheduling with the paper's future-work algorithms (§10),
// implemented here via the §5 query process: greedy (Δ+1) vertex coloring
// assigns time slots to mutually conflicting jobs, and maximal matching
// pairs up compatible reviewers.
//
// Scenario: a build farm runs n jobs; an edge means two jobs cannot run
// concurrently (shared exclusive resource). Coloring the conflict graph
// gives a slot assignment with no conflicts and at most Δ+1 slots. Then,
// for cross-review, jobs that CAN run together (non-conflicting pairs that
// share a slot... we use the conflict graph's matching for adversarial
// pairing) are matched so every pair audits each other's resource claims.
//
//	go run ./examples/scheduling
package main

import (
	"context"
	"fmt"
	"log"

	"ampc"
)

func main() {
	r := ampc.NewRNG(55, 0)
	const jobs = 3000
	conflicts := ampc.GNM(jobs, 4*jobs, r)
	ctx := context.Background()
	eng := ampc.NewEngine(ampc.EngineOptions{})

	// Slot assignment: greedy coloring over a random priority order.
	out, err := eng.Run(ctx, ampc.Job{Algo: "coloring", Graph: conflicts, Opts: &ampc.Options{Seed: 21}})
	if err != nil {
		log.Fatal(err)
	}
	col := out.Payload.(ampc.ColoringResult)
	slotCount := 0
	slotSizes := map[int]int{}
	for _, c := range col.Color {
		slotSizes[c]++
		if c+1 > slotCount {
			slotCount = c + 1
		}
	}
	fmt.Printf("jobs: %d, conflicts: %d, max conflicts per job: %d\n",
		jobs, conflicts.M(), conflicts.MaxDeg())
	fmt.Printf("schedule: %d slots (Δ+1 bound: %d), computed in %d rounds\n",
		slotCount, conflicts.MaxDeg()+1, col.Telemetry.Rounds)
	fmt.Printf("largest slot: %d jobs, slot 0: %d jobs\n", maxOf(slotSizes), slotSizes[0])

	if !ampc.IsProperColoring(conflicts, col.Color) {
		log.Fatal("schedule has a conflict!")
	}
	fmt.Println("oracle check: no two conflicting jobs share a slot ✓")

	// Adversarial audit pairs: match jobs along conflict edges so each pair
	// contends for the same resource and can audit the other's usage.
	out, err = eng.Run(ctx, ampc.Job{Algo: "matching", Graph: conflicts, Opts: &ampc.Options{Seed: 22}})
	if err != nil {
		log.Fatal(err)
	}
	match := out.Payload.(ampc.MatchingResult)
	pairs := 0
	for _, in := range match.Matched {
		if in {
			pairs++
		}
	}
	fmt.Printf("\naudit pairs: %d (covering %d of %d jobs), %d iterations\n",
		pairs, 2*pairs, jobs, match.Telemetry.Phases)
	if !ampc.IsMaximalMatching(conflicts, match.Matched) {
		log.Fatal("audit pairing is not a maximal matching")
	}
	fmt.Println("oracle check: pairing is a maximal matching ✓")

	// Every unpaired job must have all its conflicts already paired —
	// maximality means no further pair can be formed.
	unpaired := map[int]bool{}
	for v := 0; v < jobs; v++ {
		unpaired[v] = true
	}
	for e, in := range match.Matched {
		if in {
			edge := conflicts.Edges()[e]
			delete(unpaired, edge.U)
			delete(unpaired, edge.V)
		}
	}
	fmt.Printf("unpaired jobs: %d (each has every conflict partner already paired)\n", len(unpaired))
}

func maxOf(m map[int]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}
