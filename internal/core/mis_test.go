package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestMISMatchesLFMISOracle(t *testing.T) {
	r := rng.New(40, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(50)},
		{"path", graph.Path(33)},
		{"star", graph.Star(40)},
		{"clique", graph.Clique(12)},
		{"gnm-sparse", graph.GNM(200, 150, r)},
		{"gnm-mid", graph.GNM(300, 900, r)},
		{"gnm-dense", graph.GNM(100, 2000, r)},
		{"empty", graph.MustGraph(25, nil)},
		{"grid", graph.Grid(12, 12)},
	} {
		res, err := MIS(context.Background(), tc.g, Options{Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graph.IsMIS(tc.g, res.InMIS) {
			t.Fatalf("%s: output is not a maximal independent set", tc.name)
		}
		want := graph.LFMIS(tc.g, res.Pi)
		for v := range want {
			if res.InMIS[v] != want[v] {
				t.Fatalf("%s: vertex %d: got %v, LFMIS oracle %v", tc.name, v, res.InMIS[v], want[v])
			}
		}
	}
}

func TestMISSeedSweep(t *testing.T) {
	r := rng.New(41, 0)
	g := graph.GNM(150, 400, r)
	for seed := uint64(0); seed < 6; seed++ {
		res, err := MIS(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !graph.IsMIS(g, res.InMIS) {
			t.Fatalf("seed %d: invalid MIS", seed)
		}
	}
}

func TestMISIterationsSmall(t *testing.T) {
	// Theorem 2: O(1/ε) iterations. For ε=0.5 on a mid-size graph the
	// iteration count should be a small constant, far below log n.
	r := rng.New(42, 0)
	g := graph.GNM(2000, 8000, r)
	res, err := MIS(context.Background(), g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Phases > 10 {
		t.Fatalf("MIS used %d iterations, want O(1/eps) small constant", res.Telemetry.Phases)
	}
}

func TestMISTotalQueriesNearLinear(t *testing.T) {
	// Proposition 5.1: E[sum of query costs] <= m + n, counting one query
	// per visited vertex. Our accounting charges a visit its degree read and
	// the adjacency reads of the earlier neighbors it gets to, which is a
	// small constant per visit (about 2 here), so hold the total to 5(m+n).
	r := rng.New(43, 0)
	g := graph.GNM(1500, 6000, r)
	res, err := MIS(context.Background(), g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(5 * (g.N() + g.M()))
	if res.Telemetry.TotalQueries > limit {
		t.Fatalf("total queries %d exceed %d (5(m+n))", res.Telemetry.TotalQueries, limit)
	}
}

func TestMISDeterministic(t *testing.T) {
	r := rng.New(44, 0)
	g := graph.GNM(120, 300, r)
	a, err := MIS(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MIS(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("same seed, different MIS")
		}
	}
	if a.Telemetry.TotalQueries != b.Telemetry.TotalQueries {
		t.Fatal("same seed, different query counts")
	}
}

func TestMISRejectsBadEpsilon(t *testing.T) {
	if _, err := MIS(context.Background(), graph.Cycle(5), Options{Epsilon: 2}); err == nil {
		t.Fatal("epsilon 2 accepted")
	}
}

func TestMISHighDegreeVertex(t *testing.T) {
	// A star center has degree n-1; its neighborhood read is capacity-
	// truncated in iteration 1 when S is small, exercising the retry path.
	g := graph.Star(400)
	res, err := MIS(context.Background(), g, Options{Seed: 7, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMIS(g, res.InMIS) {
		t.Fatal("star MIS invalid")
	}
}
