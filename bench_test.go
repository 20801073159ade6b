// Benchmark harness: one benchmark per experiment — every row of the
// paper's Figure 1 and each lemma the reproduction measures (the index is
// the function list below). Each Figure-1 benchmark runs the AMPC algorithm and
// its MPC baseline on the same workload and reports the measured round
// counts as custom metrics (rounds-ampc, rounds-mpc); the lemma benchmarks
// report the quantity the lemma bounds. `cmd/figure1` and `cmd/lemmas`
// print the same series over wider sweeps.
//
//	go test -bench=. -benchmem
package ampc_test

import (
	"fmt"
	"math"
	"testing"

	"ampc"
	"ampc/internal/graph"
	"ampc/internal/mpc"
	"ampc/internal/rng"
)

const benchP = 64 // MPC machines for the baselines

// BenchmarkFigure1TwoCycle reproduces Figure 1 row "2-Cycle":
// AMPC O(1) vs MPC O(log n).
func BenchmarkFigure1TwoCycle(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 1)
			g := graph.TwoCycleInstance(n, true, r)
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.TwoCycle(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				m, err := mpc.TwoCycle(g, benchP, r)
				if err != nil {
					b.Fatal(err)
				}
				if !a.SingleCycle || !m.SingleCycle {
					b.Fatal("wrong answer")
				}
				aRounds, mRounds = a.Telemetry.Rounds, m.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkFigure1Connectivity reproduces Figure 1 row "Connectivity":
// AMPC O(log log n) vs MPC label propagation Θ(D), on a high-diameter grid
// where the gap is starkest.
func BenchmarkFigure1Connectivity(b *testing.B) {
	for _, side := range []int{24, 48} {
		b.Run(fmt.Sprintf("grid=%dx%d", side, side), func(b *testing.B) {
			g := graph.Grid(side, side)
			want := graph.Components(g)
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.Connectivity(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !graph.SameLabeling(a.Components, want) {
					b.Fatal("wrong labeling")
				}
				m := mpc.LabelPropagation(g, benchP)
				aRounds, mRounds = a.Telemetry.Rounds, m.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkFigure1MSF reproduces Figure 1 row "Minimum spanning tree":
// AMPC O(log log n) vs MPC Borůvka Θ(log n).
func BenchmarkFigure1MSF(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 3)
			g := graph.WithRandomWeights(graph.ConnectedGNM(n, 4*n, r), r)
			wantW := graph.TotalWeight(graph.KruskalMSF(g))
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.MSF(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if graph.TotalWeight(a.Edges) != wantW {
					b.Fatal("wrong MSF weight")
				}
				m := mpc.BoruvkaMSF(g, benchP)
				aRounds, mRounds = a.Telemetry.Rounds, m.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkFigure1MIS reproduces Figure 1 row "Maximal independent set":
// AMPC O(1) vs MPC Luby Θ(log n).
func BenchmarkFigure1MIS(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 4)
			g := graph.GNM(n, 4*n, r)
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.MIS(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				m := mpc.LubyMIS(g, benchP, r)
				if !graph.IsMIS(g, a.InMIS) || !graph.IsMIS(g, m.InMIS) {
					b.Fatal("invalid MIS")
				}
				aRounds, mRounds = a.Telemetry.Rounds, m.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkFigure1ForestConn reproduces Figure 1 row "Forest connectivity":
// AMPC O(1) via Euler tours vs MPC label propagation Θ(depth), on deep
// path-heavy forests.
func BenchmarkFigure1ForestConn(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Half the forest is one long path (depth n/2), the rest random
			// trees: a workload where Θ(depth) hurts.
			r := rng.New(uint64(n), 5)
			g := graph.Union(graph.Path(n/2), graph.RandomForest(n/2, 4, r))
			want := graph.Components(g)
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.ForestConnectivity(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !graph.SameLabeling(a.Components, want) {
					b.Fatal("wrong labeling")
				}
				m := mpc.LabelPropagation(g, benchP)
				aRounds, mRounds = a.Telemetry.Rounds, m.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkFigure1TwoEdge reproduces Figure 1 row "2-edge connectivity":
// the AMPC BC-labeling pipeline vs the MPC stage proxy (two label-prop
// connectivity runs plus a pointer-doubling list ranking — the stages any
// MPC Tarjan–Vishkin pays).
func BenchmarkFigure1TwoEdge(b *testing.B) {
	for _, n := range []int{1 << 9, 1 << 11} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 6)
			g := graph.ConnectedGNM(n, 2*n, r)
			wantBridges := len(graph.Bridges(g))
			var aRounds, mRounds int
			for i := 0; i < b.N; i++ {
				a, err := ampc.Biconnectivity(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if len(a.Bridges) != wantBridges {
					b.Fatal("wrong bridges")
				}
				lp := mpc.LabelPropagation(g, benchP)
				next := make([]int, n)
				for j := 0; j < n-1; j++ {
					next[j] = j + 1
				}
				next[n-1] = -1
				lr := mpc.PointerDoublingListRank(next, benchP)
				aRounds, mRounds = a.Telemetry.Rounds, 2*lp.Rounds+lr.Rounds
			}
			b.ReportMetric(float64(aRounds), "rounds-ampc")
			b.ReportMetric(float64(mRounds), "rounds-mpc")
		})
	}
}

// BenchmarkLemma21Contention validates the DDS contention bound: the
// maximum per-round shard load stays within a small constant of S.
func BenchmarkLemma21Contention(b *testing.B) {
	n := 1 << 13
	r := rng.New(uint64(n), 7)
	g := graph.TwoCycleInstance(n, true, r)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := ampc.TwoCycle(g, ampc.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.Telemetry.MaxShardLoad) / float64(res.Telemetry.S)
	}
	b.ReportMetric(ratio, "maxShardLoad/S")
}

// BenchmarkLemma41Shrink validates the per-iteration contraction factor of
// the Shrink procedure against the predicted n^{δ/2}.
func BenchmarkLemma41Shrink(b *testing.B) {
	n := 1 << 14
	var measured, predicted float64
	for i := 0; i < b.N; i++ {
		sizes, _, err := ampc.ShrinkTrace(graph.Cycle(n), 0.5, 1, ampc.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		measured = float64(sizes[0]) / float64(sizes[1])
		predicted = math.Pow(float64(n), 0.25)
	}
	b.ReportMetric(measured, "shrink-factor")
	b.ReportMetric(predicted, "predicted")
}

// BenchmarkLemma43Queries validates the per-machine communication bound:
// max per-machine queries per round vs the enforced c·S budget.
func BenchmarkLemma43Queries(b *testing.B) {
	n := 1 << 13
	r := rng.New(uint64(n), 8)
	g := graph.TwoCycleInstance(n, false, r)
	var perMachine, s float64
	for i := 0; i < b.N; i++ {
		res, err := ampc.TwoCycle(g, ampc.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		perMachine = float64(res.Telemetry.MaxMachineQueries)
		s = float64(res.Telemetry.S)
	}
	b.ReportMetric(perMachine/s, "maxMachineQueries/S")
}

// BenchmarkProp51MISWork validates the near-linear total work of the MIS
// query process: total queries per (m+n).
func BenchmarkProp51MISWork(b *testing.B) {
	n := 1 << 12
	r := rng.New(uint64(n), 9)
	g := graph.GNM(n, 4*n, r)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := ampc.MIS(g, ampc.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.Telemetry.TotalQueries) / float64(g.N()+g.M())
	}
	b.ReportMetric(ratio, "queries/(m+n)")
}

// BenchmarkLemma82CycleQueries validates the O(log k) per-vertex π-search
// cost in cycle connectivity.
func BenchmarkLemma82CycleQueries(b *testing.B) {
	n := 1 << 13
	g := graph.Cycle(n)
	var perVertex float64
	for i := 0; i < b.N; i++ {
		res, err := ampc.CycleConnectivity(g, ampc.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		perVertex = float64(res.Telemetry.TotalQueries) / float64(n)
	}
	b.ReportMetric(perVertex, "queries/vertex")
	b.ReportMetric(math.Log2(float64(n)), "log2(n)")
}

// BenchmarkListRanking validates Theorem 6: list-ranking rounds independent
// of n.
func BenchmarkListRanking(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			next := make([]int, n)
			for i := 0; i < n-1; i++ {
				next[i] = i + 1
			}
			next[n-1] = -1
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := ampc.ListRanking(next, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Telemetry.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkExtensionMatching measures the §10 future-work maximal matching
// (implemented with the §5 query process): iterations should be a small
// constant in n, like MIS.
func BenchmarkExtensionMatching(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 12)
			g := graph.GNM(n, 4*n, r)
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := ampc.MaximalMatching(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !graph.IsMaximalMatching(g, res.Matched) {
					b.Fatal("invalid matching")
				}
				iters = res.Telemetry.Phases
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkExtensionColoring measures the §10 future-work (Δ+1) coloring.
func BenchmarkExtensionColoring(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 13)
			g := graph.GNM(n, 4*n, r)
			var iters, colors int
			for i := 0; i < b.N; i++ {
				res, err := ampc.GreedyColoring(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Telemetry.Phases
				colors = 0
				for _, c := range res.Color {
					if c+1 > colors {
						colors = c + 1
					}
				}
			}
			b.ReportMetric(float64(iters), "iterations")
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkExtensionAffinity measures affinity clustering (the motivating
// DHT+MapReduce application from the paper's introduction): O(log n) levels
// at two rounds each.
func BenchmarkExtensionAffinity(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n), 15)
			g := graph.WithRandomWeights(graph.ConnectedGNM(n, 4*n, r), r)
			var levels, rounds int
			for i := 0; i < b.N; i++ {
				res, err := ampc.AffinityClustering(g, ampc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				levels, rounds = len(res.Levels), res.Telemetry.Rounds
			}
			b.ReportMetric(float64(levels), "levels")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationFaults measures the overhead of aggressive failure
// injection (every machine has a 25% chance of being killed and replayed
// each round): output is asserted unchanged; ns/op shows the replay cost.
func BenchmarkAblationFaults(b *testing.B) {
	n := 1 << 12
	r := rng.New(uint64(n), 14)
	g := graph.TwoCycleInstance(n, true, r)
	for _, fp := range []float64{0, 0.25} {
		b.Run(fmt.Sprintf("faultProb=%.2f", fp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ampc.TwoCycle(g, ampc.Options{Seed: 1, FaultProb: fp})
				if err != nil {
					b.Fatal(err)
				}
				if !res.SingleCycle {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps the space exponent: rounds scale like
// 1/ε while per-machine space (and hence budget) scales like n^ε — the
// parallel-slackness trade-off of §2.1.
func BenchmarkAblationEpsilon(b *testing.B) {
	n := 1 << 13
	r := rng.New(uint64(n), 10)
	g := graph.TwoCycleInstance(n, true, r)
	for _, eps := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			var rounds, s int
			for i := 0; i < b.N; i++ {
				res, err := ampc.TwoCycle(g, ampc.Options{Seed: uint64(i), Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				rounds, s = res.Telemetry.Rounds, res.Telemetry.S
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(s), "S")
		})
	}
}

// BenchmarkAblationBudget sweeps the total-space slack for connectivity:
// more total space means a larger per-vertex exploration budget d and
// fewer phases — the design choice behind Algorithm 7's d = sqrt(T/n).
func BenchmarkAblationBudget(b *testing.B) {
	n := 1 << 12
	r := rng.New(uint64(n), 11)
	g := graph.ConnectedGNM(n, 4*n, r)
	for _, factor := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("T=%dx(n+m)", factor), func(b *testing.B) {
			var phases int
			for i := 0; i < b.N; i++ {
				res, err := ampc.Connectivity(g, ampc.Options{Seed: uint64(i), TotalSpaceFactor: factor})
				if err != nil {
					b.Fatal(err)
				}
				phases = res.Telemetry.Phases
			}
			b.ReportMetric(float64(phases), "phases")
		})
	}
}
