package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestGreedyColoringMatchesOracle(t *testing.T) {
	r := rng.New(100, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(25)},
		{"cycle-even", graph.Cycle(20)},
		{"cycle-odd", graph.Cycle(21)},
		{"star", graph.Star(12)},
		{"clique", graph.Clique(9)},
		{"gnm", graph.GNM(200, 600, r)},
		{"grid", graph.Grid(9, 9)},
		{"empty", graph.MustGraph(8, nil)},
	} {
		res, err := GreedyColoring(context.Background(), tc.g, Options{Seed: 41})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graph.IsProperColoring(tc.g, res.Color) {
			t.Fatalf("%s: coloring not proper", tc.name)
		}
		want := graph.GreedyColoring(tc.g, res.Pi)
		for v := range want {
			if res.Color[v] != want[v] {
				t.Fatalf("%s: color[%d] = %d, greedy oracle %d", tc.name, v, res.Color[v], want[v])
			}
		}
	}
}

func TestGreedyColoringDeltaPlusOne(t *testing.T) {
	r := rng.New(101, 0)
	g := graph.GNM(300, 900, r)
	res, err := GreedyColoring(context.Background(), g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, c := range res.Color {
		if c > max {
			max = c
		}
	}
	if max > g.MaxDeg() {
		t.Fatalf("used color %d > MaxDeg %d (Δ+1 bound broken)", max, g.MaxDeg())
	}
}

func TestGreedyColoringCliqueUsesAllColors(t *testing.T) {
	g := graph.Clique(7)
	res, err := GreedyColoring(context.Background(), g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range res.Color {
		seen[c] = true
	}
	if len(seen) != 7 {
		t.Fatalf("clique-7 used %d colors, want 7", len(seen))
	}
}

func TestGreedyColoringIterationsSmall(t *testing.T) {
	r := rng.New(102, 0)
	g := graph.GNM(1000, 4000, r)
	res, err := GreedyColoring(context.Background(), g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Phases > 12 {
		t.Fatalf("coloring used %d iterations", res.Telemetry.Phases)
	}
}

func TestGreedyColoringTotalQueriesNearLinear(t *testing.T) {
	// Coloring has no early exit — a vertex needs every earlier neighbor's
	// color — so its query trees grow exponentially with the degree and
	// Proposition 5.1 does not carry over. On a bounded-degree graph they
	// stay small, and the total must stay within a constant of m+n.
	g := graph.Grid(40, 40)
	res, err := GreedyColoring(context.Background(), g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(10 * (g.N() + g.M()))
	if res.Telemetry.TotalQueries > limit {
		t.Fatalf("total queries %d exceed %d (10(m+n))", res.Telemetry.TotalQueries, limit)
	}
}

func TestGreedyColoringHighDegreeVertex(t *testing.T) {
	// This seed ranks the star's center after 2737 of its 2999 leaves, all
	// settled by iteration 2: its one visit then reads an adjacency record
	// and a status per leaf, about 23x the default budget 8S, and must not
	// be charged visit capacity for leaves that have left the graph.
	g := graph.Star(3000)
	res, err := GreedyColoring(context.Background(), g, Options{Seed: 9, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.GreedyColoring(g, res.Pi)
	for v := range want {
		if res.Color[v] != want[v] {
			t.Fatalf("color[%d] = %d, greedy oracle %d", v, res.Color[v], want[v])
		}
	}
}

func TestGreedyColoringSurvivesFaults(t *testing.T) {
	r := rng.New(103, 0)
	g := graph.GNM(150, 400, r)
	clean, err := GreedyColoring(context.Background(), g, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := GreedyColoring(context.Background(), g, Options{Seed: 8, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Color {
		if clean.Color[v] != faulty.Color[v] {
			t.Fatal("failure injection changed the coloring")
		}
	}
}

func TestGreedyColoringOracleProper(t *testing.T) {
	r := rng.New(104, 0)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(60)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		pi := r.Perm(n)
		color := graph.GreedyColoring(g, pi)
		if !graph.IsProperColoring(g, color) {
			t.Fatalf("trial %d: oracle coloring improper", trial)
		}
		for _, c := range color {
			if c < 0 || c > g.MaxDeg() {
				t.Fatalf("trial %d: color %d out of Δ+1 range", trial, c)
			}
		}
	}
}

func TestIsProperColoringRejects(t *testing.T) {
	g := graph.Path(3)
	if graph.IsProperColoring(g, []int{0, 0, 1}) {
		t.Fatal("improper coloring accepted")
	}
	if !graph.IsProperColoring(g, []int{0, 1, 0}) {
		t.Fatal("proper coloring rejected")
	}
	if graph.IsProperColoring(g, []int{0}) {
		t.Fatal("wrong length accepted")
	}
}
