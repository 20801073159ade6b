package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestMaximalMatchingMatchesGreedyOracle(t *testing.T) {
	r := rng.New(90, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(20)},
		{"cycle", graph.Cycle(21)},
		{"star", graph.Star(15)},
		{"clique", graph.Clique(10)},
		{"gnm", graph.GNM(150, 450, r)},
		{"grid", graph.Grid(8, 9)},
		{"empty", graph.MustGraph(10, nil)},
		{"forest", graph.RandomForest(120, 6, r)},
	} {
		res, err := MaximalMatching(context.Background(), tc.g, Options{Seed: 31})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graph.IsMaximalMatching(tc.g, res.Matched) {
			t.Fatalf("%s: output is not a maximal matching", tc.name)
		}
		want := graph.GreedyMatching(tc.g, res.Pi)
		for e := range want {
			if res.Matched[e] != want[e] {
				t.Fatalf("%s: edge %d: got %v, greedy oracle %v", tc.name, e, res.Matched[e], want[e])
			}
		}
	}
}

func TestMaximalMatchingSeedSweep(t *testing.T) {
	r := rng.New(91, 0)
	g := graph.GNM(200, 600, r)
	for seed := uint64(0); seed < 6; seed++ {
		res, err := MaximalMatching(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !graph.IsMaximalMatching(g, res.Matched) {
			t.Fatalf("seed %d: invalid matching", seed)
		}
	}
}

func TestMaximalMatchingIterationsSmall(t *testing.T) {
	r := rng.New(92, 0)
	g := graph.GNM(1500, 6000, r)
	res, err := MaximalMatching(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Phases > 10 {
		t.Fatalf("matching used %d iterations, want small constant", res.Telemetry.Phases)
	}
}

func TestMaximalMatchingTotalQueriesNearLinear(t *testing.T) {
	// Proposition 5.1 on the line graph, whose vertices are g's edges and
	// whose edges are the pairs of edges sharing an endpoint.
	r := rng.New(95, 0)
	g := graph.GNM(1500, 6000, r)
	res, err := MaximalMatching(context.Background(), g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	lineSize := g.M()
	for v := 0; v < g.N(); v++ {
		lineSize += g.Deg(v) * (g.Deg(v) - 1) / 2
	}
	limit := int64(3 * lineSize)
	if res.Telemetry.TotalQueries > limit {
		t.Fatalf("total queries %d exceed %d (3x the line graph's m+n)", res.Telemetry.TotalQueries, limit)
	}
}

func TestMaximalMatchingSurvivesFaults(t *testing.T) {
	r := rng.New(93, 0)
	g := graph.GNM(200, 500, r)
	clean, err := MaximalMatching(context.Background(), g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := MaximalMatching(context.Background(), g, Options{Seed: 4, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for e := range clean.Matched {
		if clean.Matched[e] != faulty.Matched[e] {
			t.Fatal("failure injection changed the matching")
		}
	}
}

func TestGreedyMatchingOracleProperties(t *testing.T) {
	r := rng.New(94, 0)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(50)
		m := r.Intn(2 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		pi := r.Perm(g.M())
		in := graph.GreedyMatching(g, pi)
		if !graph.IsMaximalMatching(g, in) {
			t.Fatalf("trial %d: greedy oracle produced a non-maximal matching", trial)
		}
	}
}

func TestIsMaximalMatchingRejects(t *testing.T) {
	g := graph.Path(4) // edges (0,1), (1,2), (2,3)
	if graph.IsMaximalMatching(g, []bool{true, true, false}) {
		t.Fatal("overlapping matching accepted")
	}
	if graph.IsMaximalMatching(g, []bool{false, true, false}) == false {
		t.Fatal("valid maximal matching rejected")
	}
	if graph.IsMaximalMatching(g, []bool{true, false, false}) {
		t.Fatal("non-maximal matching accepted")
	}
	if graph.IsMaximalMatching(g, []bool{true}) {
		t.Fatal("wrong length accepted")
	}
}
