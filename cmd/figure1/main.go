// Command figure1 regenerates the paper's Figure 1: for each of the six
// problems it measures the AMPC algorithm's rounds against the classic MPC
// baseline's rounds over a sweep of input sizes. The absolute values depend
// on simulation constants; the figure's claim is the SHAPE — AMPC round
// counts are flat (or log log) in n while the MPC baselines grow like
// log n (pointer doubling, Luby, Borůvka) or the diameter (label
// propagation). Both columns are counted by one budget-enforced runtime:
// the MPC baselines run as the paper's §2 simulation of MPC rounds on it.
//
//	go run ./cmd/figure1 [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"ampc"
	"ampc/internal/graph"
	"ampc/internal/mpc"
	"ampc/internal/rng"
)

// run dispatches one AMPC measurement through the shared Engine and
// returns its telemetry.
func run(eng *ampc.Engine, job ampc.Job) ampc.Telemetry {
	res, err := eng.Run(context.Background(), job)
	fail(err)
	return res.Telemetry
}

func main() {
	quick := flag.Bool("quick", false, "smaller sweep for smoke testing")
	flag.Parse()

	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if *quick {
		sizes = []int{1 << 9, 1 << 11}
	}
	const p = 64 // MPC machines
	eng := ampc.NewEngine(ampc.EngineOptions{})

	fmt.Println("Figure 1 reproduction: rounds, AMPC vs MPC baselines")
	fmt.Println("(shapes, not absolute values, are the claim under test)")

	// Row 5 first in the paper's narrative: the 2-Cycle problem.
	fmt.Println("\n== 2-Cycle: AMPC Shrink (O(1/eps)) vs MPC pointer doubling (Theta(log n)) ==")
	fmt.Printf("%10s %14s %14s\n", "n", "AMPC rounds", "MPC rounds")
	for _, n := range sizes {
		r := rng.New(uint64(n), 1)
		g := graph.TwoCycleInstance(n, n%3 != 0, r)
		a := run(eng, ampc.Job{Algo: "twocycle", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.TwoCycle(g, p)
		fail(err)
		fmt.Printf("%10d %14d %14d\n", n, a.Rounds, m.Rounds)
	}

	fmt.Println("\n== Connectivity: AMPC IncreaseDegrees (O(log log n)) vs MPC label propagation (Theta(D)) ==")
	fmt.Printf("%10s %10s %14s %14s\n", "n (grid)", "diameter", "AMPC rounds", "LabelProp")
	for _, n := range sizes {
		side := isqrt(n)
		g := graph.Grid(side, side)
		a := run(eng, ampc.Job{Algo: "connectivity", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.LabelPropagation(g, p)
		fail(err)
		fmt.Printf("%10d %10d %14d %14d\n", side*side, 2*(side-1), a.Rounds, m.Rounds)
	}
	fmt.Printf("%10s %10s %14s %14s\n", "n (gnm)", "~log n", "AMPC rounds", "MPC rounds")
	for _, n := range sizes {
		r := rng.New(uint64(n), 2)
		g := graph.ConnectedGNM(n, 4*n, r)
		a := run(eng, ampc.Job{Algo: "connectivity", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.LabelPropagation(g, p)
		fail(err)
		fmt.Printf("%10d %10s %14d %14d\n", n, "-", a.Rounds, m.Rounds)
	}

	fmt.Println("\n== Minimum spanning forest: AMPC local Prim (O(log log n)) vs MPC Boruvka (Theta(log n)) ==")
	fmt.Printf("%10s %14s %14s %12s\n", "n", "AMPC rounds", "MPC rounds", "MPC phases")
	for _, n := range sizes {
		r := rng.New(uint64(n), 3)
		g := graph.WithRandomWeights(graph.ConnectedGNM(n, 4*n, r), r)
		a := run(eng, ampc.Job{Algo: "msf", Weighted: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.BoruvkaMSF(g, p)
		fail(err)
		fmt.Printf("%10d %14d %14d %12d\n", n, a.Rounds, m.Rounds, m.Phases)
	}

	fmt.Println("\n== Maximal independent set: AMPC LFMIS (O(1/eps)) vs MPC Luby (Theta(log n)) ==")
	fmt.Printf("%10s %14s %14s %12s\n", "n", "AMPC rounds", "MPC rounds", "Luby iters")
	for _, n := range sizes {
		r := rng.New(uint64(n), 4)
		g := graph.GNM(n, 4*n, r)
		a := run(eng, ampc.Job{Algo: "mis", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.LubyMIS(g, p, r)
		fail(err)
		fmt.Printf("%10d %14d %14d %12d\n", n, a.Rounds, m.Rounds, m.Iterations)
	}

	fmt.Println("\n== Forest connectivity: AMPC Euler tours (O(1/eps)) vs MPC label propagation (Theta(tree depth)) ==")
	fmt.Printf("%10s %14s %14s\n", "n", "AMPC rounds", "MPC rounds")
	for _, n := range sizes {
		r := rng.New(uint64(n), 5)
		g := graph.RandomForest(n, 8, r)
		a := run(eng, ampc.Job{Algo: "forestconn", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		m, err := mpc.LabelPropagation(g, p)
		fail(err)
		fmt.Printf("%10d %14d %14d\n", n, a.Rounds, m.Rounds)
	}

	fmt.Println("\n== 2-edge connectivity: AMPC BC-labeling (O(log log n)) vs MPC pipeline proxy ==")
	fmt.Println("(MPC proxy = label-prop connectivity + pointer-doubling list ranking + label-prop again,")
	fmt.Println(" the three stages any MPC implementation of Tarjan-Vishkin pays)")
	fmt.Printf("%10s %14s %14s\n", "n", "AMPC rounds", "MPC rounds")
	for _, n := range sizes {
		if n > 1<<14 {
			break // the AMPC pipeline multiplies stage constants; keep the sweep snappy
		}
		r := rng.New(uint64(n), 6)
		g := graph.ConnectedGNM(n, 2*n, r)
		a := run(eng, ampc.Job{Algo: "biconn", Graph: g, Opts: &ampc.Options{Seed: uint64(n)}})
		lp, err := mpc.LabelPropagation(g, p)
		fail(err)
		next := make([]int, n)
		for i := 0; i < n-1; i++ {
			next[i] = i + 1
		}
		next[n-1] = -1
		lr, err := mpc.PointerDoublingListRank(next, p)
		fail(err)
		proxy := 2*lp.Rounds + lr.Rounds
		fmt.Printf("%10d %14d %14d\n", n, a.Rounds, proxy)
	}
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
