package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestConnectivityMatchesOracle(t *testing.T) {
	r := rng.New(50, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-sparse", graph.GNM(300, 350, r)},
		{"gnm-dense", graph.GNM(200, 2000, r)},
		{"connected", graph.ConnectedGNM(500, 2000, r)},
		{"two-comps", graph.Union(graph.ConnectedGNM(100, 300, r), graph.ConnectedGNM(80, 200, r))},
		{"grid", graph.Grid(15, 15)},
		{"path", graph.Path(200)},
		{"star", graph.Star(150)},
		{"forest", graph.RandomForest(250, 10, r)},
		{"empty", graph.MustGraph(40, nil)},
		{"clique", graph.Clique(30)},
	} {
		res, err := Connectivity(context.Background(), tc.g, Options{Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graph.SameLabeling(res.Components, graph.Components(tc.g)) {
			t.Fatalf("%s: wrong component labeling", tc.name)
		}
	}
}

func TestConnectivitySeedSweep(t *testing.T) {
	r := rng.New(51, 0)
	g := graph.GNM(400, 900, r)
	want := graph.Components(g)
	for seed := uint64(0); seed < 6; seed++ {
		res, err := Connectivity(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !graph.SameLabeling(res.Components, want) {
			t.Fatalf("seed %d: wrong labeling", seed)
		}
	}
}

func TestConnectivityHighDiameter(t *testing.T) {
	// The whole point vs label propagation: a path of length 4095 has
	// diameter 4095 but the AMPC algorithm needs only O(log log n) phases.
	g := graph.Path(4096)
	res, err := Connectivity(context.Background(), g, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameLabeling(res.Components, graph.Components(g)) {
		t.Fatal("wrong labeling on path")
	}
	if res.Telemetry.Phases > 16 {
		t.Fatalf("phases = %d on diameter-4095 input, want far below diameter", res.Telemetry.Phases)
	}
}

func TestConnectivityPhasesDoublyLogarithmic(t *testing.T) {
	r := rng.New(52, 0)
	small, err := Connectivity(context.Background(), graph.ConnectedGNM(512, 2048, r), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Connectivity(context.Background(), graph.ConnectedGNM(16384, 65536, r), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 32x more vertices should cost at most a few extra phases.
	if large.Telemetry.Phases > small.Telemetry.Phases+5 {
		t.Fatalf("phases grew too fast: %d -> %d", small.Telemetry.Phases, large.Telemetry.Phases)
	}
}

func TestConnectivityDeterministic(t *testing.T) {
	r := rng.New(53, 0)
	g := graph.GNM(300, 700, r)
	a, err := Connectivity(context.Background(), g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connectivity(context.Background(), g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Components {
		if a.Components[v] != b.Components[v] {
			t.Fatal("same seed, different labelings")
		}
	}
	if a.Telemetry.Rounds != b.Telemetry.Rounds || a.Telemetry.TotalQueries != b.Telemetry.TotalQueries {
		t.Fatal("same seed, different telemetry")
	}
}

func TestConnectivityRejectsBadEpsilon(t *testing.T) {
	if _, err := Connectivity(context.Background(), graph.Cycle(5), Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}
