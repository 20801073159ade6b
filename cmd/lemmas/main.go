// Command lemmas empirically validates the paper's quantitative lemmas:
//
//	Lemma 2.1  — DDS contention: max shard load stays O(S) under random
//	             key placement;
//	Lemma 4.1  — Shrink reduces cycle sizes by ~n^{δ/2} per iteration;
//	Lemma 4.3  — per-machine communication stays O(n^ε) per round;
//	Prop. 5.1  — the MIS query process does near-linear total work;
//	Lemma 8.2  — cycle-connectivity π-searches cost O(log k) queries per
//	             vertex;
//	Theorem 6  — list-ranking rounds are independent of n.
//
//	go run ./cmd/lemmas [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"ampc"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// run dispatches one experiment through the shared Engine and returns its
// telemetry; every lemma sweep below uses the registry path.
func run(eng *ampc.Engine, job ampc.Job) ampc.Telemetry {
	res, err := eng.Run(context.Background(), job)
	fail(err)
	return res.Telemetry
}

func main() {
	quick := flag.Bool("quick", false, "smaller sweep for smoke testing")
	flag.Parse()
	sizes := []int{1 << 11, 1 << 13, 1 << 15}
	if *quick {
		sizes = []int{1 << 9, 1 << 11}
	}
	eng := ampc.NewEngine(ampc.EngineOptions{})

	fmt.Println("== Lemma 4.1: Shrink contraction factor ==")
	fmt.Println("sampling probability n^{-delta/2} should shrink cycles by ~n^{delta/2} per iteration")
	fmt.Printf("%10s %8s %26s %18s\n", "n", "delta", "sizes per iteration", "measured factors")
	for _, n := range sizes {
		for _, delta := range []float64{0.4, 0.5} {
			sizesTrace, _, err := ampc.ShrinkTrace(context.Background(), graph.Cycle(n), delta, 3, ampc.Options{Seed: uint64(n)})
			fail(err)
			pred := math.Pow(float64(n), delta/2)
			var factors []string
			for i := 1; i < len(sizesTrace); i++ {
				if sizesTrace[i] > 0 && sizesTrace[i-1] > sizesTrace[i] {
					factors = append(factors, fmt.Sprintf("%.1fx", float64(sizesTrace[i-1])/float64(sizesTrace[i])))
				}
			}
			fmt.Printf("%10d %8.2f %26v %12v (predicted %.1fx)\n", n, delta, sizesTrace, factors, pred)
		}
	}

	fmt.Println("\n== Lemma 2.1 (contention) and Lemma 4.3 (per-machine queries) ==")
	fmt.Println("both the max shard load and the max per-machine queries must stay within a constant factor of S")
	fmt.Printf("%10s %8s %10s %12s %12s %14s\n", "n", "S", "budget", "maxMachine", "maxShard", "shard/S ratio")
	for _, n := range sizes {
		r := rng.New(uint64(n), 9)
		g := graph.TwoCycleInstance(n, true, r)
		t := run(eng, ampc.Job{Algo: "twocycle", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		fmt.Printf("%10d %8d %10s %12d %12d %14.2f\n",
			n, t.S, "enforced", t.MaxMachineQueries, t.MaxShardLoad, float64(t.MaxShardLoad)/float64(t.S))
	}

	fmt.Println("\n== Proposition 5.1: MIS total query work ==")
	fmt.Println("expected total queries <= m+n in the paper's call-counting (one per visited vertex); we charge")
	fmt.Println("every read — a visit's degree record plus one pi-ordered adjacency record per earlier neighbor it")
	fmt.Println("gets to — so queries/(m+n) is that per-visit constant: it should sit near 2 and not grow with n")
	fmt.Printf("%10s %10s %14s %16s\n", "n", "m", "queries", "queries/(m+n)")
	for _, n := range sizes {
		r := rng.New(uint64(n), 10)
		g := graph.GNM(n, 4*n, r)
		t := run(eng, ampc.Job{Algo: "mis", Graph: g, Check: true, Opts: &ampc.Options{Seed: uint64(n)}})
		ratio := float64(t.TotalQueries) / float64(g.N()+g.M())
		fmt.Printf("%10d %10d %14d %16.2f\n", n, g.M(), t.TotalQueries, ratio)
	}

	fmt.Println("\n== Lemma 8.2: pi-search cost on cycles ==")
	fmt.Println("expected queries per vertex O(log k); the per-vertex average should track log2(n)")
	fmt.Printf("%10s %14s %18s %10s\n", "n", "queries", "queries/vertex", "log2(n)")
	for _, n := range sizes {
		t := run(eng, ampc.Job{Algo: "cycleconn", Graph: graph.Cycle(n), Opts: &ampc.Options{Seed: uint64(n)}})
		perV := float64(t.TotalQueries) / float64(n)
		fmt.Printf("%10d %14d %18.2f %10.1f\n", n, t.TotalQueries, perV, math.Log2(float64(n)))
	}

	fmt.Println("\n== Theorem 6: list-ranking rounds vs n ==")
	fmt.Printf("%10s %12s\n", "n", "rounds")
	for _, n := range sizes {
		next := make([]int, n)
		for i := 0; i < n-1; i++ {
			next[i] = i + 1
		}
		next[n-1] = -1
		t := run(eng, ampc.Job{Algo: "listrank", Next: next, Opts: &ampc.Options{Seed: uint64(n)}})
		fmt.Printf("%10d %12d\n", n, t.Rounds)
	}
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
