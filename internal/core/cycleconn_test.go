package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestCycleConnectivitySingle(t *testing.T) {
	g := graph.Cycle(100)
	res, err := CycleConnectivity(context.Background(), g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameLabeling(res.Components, graph.Components(g)) {
		t.Fatal("wrong labeling for one cycle")
	}
}

func TestCycleConnectivityManyCycles(t *testing.T) {
	r := rng.New(2, 0)
	// Mixed cycle sizes, including ones too small to ever be sampled.
	g := graph.Union(
		graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Cycle(200), graph.Cycle(500), graph.Cycle(1000),
	)
	g = graph.Relabel(g, r.Perm(g.N()))
	res, err := CycleConnectivity(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameLabeling(res.Components, graph.Components(g)) {
		t.Fatal("wrong labeling for cycle collection")
	}
}

func TestCycleConnectivitySeedSweep(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed, 10)
		g := graph.Union(graph.Cycle(64), graph.Cycle(128), graph.Cycle(37))
		g = graph.Relabel(g, r.Perm(g.N()))
		res, err := CycleConnectivity(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !graph.SameLabeling(res.Components, graph.Components(g)) {
			t.Fatalf("seed %d: wrong labeling", seed)
		}
	}
}

func TestCycleConnectivityRejectsNonCycle(t *testing.T) {
	if _, err := CycleConnectivity(context.Background(), graph.Star(5), Options{}); err == nil {
		t.Fatal("star accepted")
	}
}

func TestCycleConnectivityRoundsConstant(t *testing.T) {
	r := rng.New(4, 0)
	small, err := CycleConnectivity(context.Background(), graph.TwoCycleInstance(512, true, r), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := CycleConnectivity(context.Background(), graph.TwoCycleInstance(32768, true, r), Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if large.Telemetry.Rounds > small.Telemetry.Rounds+4 {
		t.Fatalf("rounds grew with n: %d -> %d", small.Telemetry.Rounds, large.Telemetry.Rounds)
	}
	// Lemma 8.2: the π-searches cost O(log n) expected queries per vertex,
	// held here to log2(n) itself from n = 2^11 on; at n = 512 the per-vertex
	// constant still dominates (9.99 queries per vertex against 9). Measured:
	// 7.50 against 11 on Cycle(2^11) and 9.38 against 15 on the 2^15 input.
	mid, err := CycleConnectivity(context.Background(), graph.Cycle(2048), Options{Seed: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		n   int
		tel Telemetry
	}{{2048, mid.Telemetry}, {32768, large.Telemetry}} {
		perV, bound := float64(run.tel.TotalQueries)/float64(run.n), math.Log2(float64(run.n))
		if perV > bound {
			t.Errorf("n=%d: %.2f queries per vertex, Lemma 8.2 allows log2(n) = %.1f", run.n, perV, bound)
		}
	}
}

func TestForestConnectivityTrees(t *testing.T) {
	r := rng.New(5, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"one-tree", graph.RandomTree(300, r)},
		{"forest", graph.RandomForest(400, 12, r)},
		{"path", graph.Path(64)},
		{"star", graph.Star(128)},
		{"caterpillar", graph.Caterpillar(20, 4)},
		{"single-edge-trees", graph.RandomForest(50, 25, r)},
	} {
		res, err := ForestConnectivity(context.Background(), tc.g, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graph.SameLabeling(res.Components, graph.Components(tc.g)) {
			t.Fatalf("%s: wrong labeling", tc.name)
		}
	}
}

// TestForestConnectivityPhases pins Phases to the shrink iterations — one
// shrink-traverse round each — for forest connectivity as for cycle
// connectivity, whose pipeline it runs on the Euler-tour cycles: a phase
// is an outer iteration, not a round.
func TestForestConnectivityPhases(t *testing.T) {
	shrinkRounds := func(tel Telemetry) int {
		k := 0
		for _, st := range tel.RoundStats {
			if strings.HasPrefix(st.Name, "shrink-traverse-") {
				k++
			}
		}
		return k
	}
	forest, err := ForestConnectivity(context.Background(), graph.RandomForest(3000, 4, rng.New(5, 1)), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := CycleConnectivity(context.Background(), graph.Union(graph.Cycle(2000), graph.Cycle(1000)), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, tel := range map[string]Telemetry{"forestconn": forest.Telemetry, "cycleconn": cycles.Telemetry} {
		if k := shrinkRounds(tel); tel.Phases == 0 || tel.Phases != k || tel.Phases >= tel.Rounds {
			t.Errorf("%s: %d phases over %d rounds with %d shrink iterations", name, tel.Phases, tel.Rounds, k)
		}
	}
	edgeless, err := ForestConnectivity(context.Background(), graph.MustGraph(7, nil), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if edgeless.Telemetry.Phases != 0 {
		t.Errorf("edgeless forest: %d phases, want 0", edgeless.Telemetry.Phases)
	}
}

func TestForestConnectivityIsolatedVertices(t *testing.T) {
	// Forest with edges only among first 10 vertices; 5 isolated ones.
	g := graph.Union(graph.Path(10), graph.MustGraph(5, nil))
	res, err := ForestConnectivity(context.Background(), g, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameLabeling(res.Components, graph.Components(g)) {
		t.Fatal("isolated vertices mislabeled")
	}
}

func TestForestConnectivityEmptyGraph(t *testing.T) {
	g := graph.MustGraph(7, nil)
	res, err := ForestConnectivity(context.Background(), g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Components {
		if c != v {
			t.Fatalf("vertex %d labeled %d in edgeless forest", v, c)
		}
	}
}

func TestForestConnectivityRejectsCyclic(t *testing.T) {
	if _, err := ForestConnectivity(context.Background(), graph.Cycle(5), Options{}); err == nil {
		t.Fatal("cycle accepted as forest")
	}
}

func TestEulerTourIsSingleCyclePerTree(t *testing.T) {
	r := rng.New(6, 0)
	g := graph.RandomForest(80, 5, r)
	et := eulerTours(g)
	// succ must be a permutation of darts whose cycles each cover exactly
	// the darts of one tree.
	nd := 2 * g.M()
	seen := make([]bool, nd)
	cycles := 0
	for d := 0; d < nd; d++ {
		if seen[d] {
			continue
		}
		cycles++
		comp := graph.Components(g)
		tail, _ := et.endpoints(d)
		want := comp[tail]
		x := d
		for {
			if seen[x] {
				t.Fatal("tour revisits a dart")
			}
			seen[x] = true
			tl, _ := et.endpoints(x)
			if comp[tl] != want {
				t.Fatal("tour crosses trees")
			}
			x = et.succ[x]
			if x == d {
				break
			}
		}
	}
	nonTrivial := 0
	comp := graph.Components(g)
	treeSeen := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) > 0 && !treeSeen[comp[v]] {
			treeSeen[comp[v]] = true
			nonTrivial++
		}
	}
	if cycles != nonTrivial {
		t.Fatalf("tour cycles = %d, trees with edges = %d", cycles, nonTrivial)
	}
}

func TestEulerTourSuccPredInverse(t *testing.T) {
	g := graph.RandomTree(60, rng.New(7, 0))
	et := eulerTours(g)
	for d := range et.succ {
		if et.pred[et.succ[d]] != d {
			t.Fatalf("pred(succ(%d)) = %d", d, et.pred[et.succ[d]])
		}
	}
}

func TestDartIDEndpointsConsistent(t *testing.T) {
	g := graph.Caterpillar(6, 2)
	et := eulerTours(g)
	for v := 0; v < g.N(); v++ {
		for i := 0; i < g.Deg(v); i++ {
			d := et.dartID(v, i)
			tail, head := et.endpoints(d)
			if tail != v || head != g.Neighbor(v, i) {
				t.Fatalf("dart (%d,%d): endpoints (%d,%d)", v, i, tail, head)
			}
		}
	}
}
