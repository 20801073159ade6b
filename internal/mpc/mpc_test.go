package mpc

import (
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// TestRuntimeRouting routes one message per vertex to vertex (v+1) mod 16
// on a baseline's runtime: item-addressed MPCRound delivers each message to
// its vertex, one MPCRound per MPC round, and counts every send as a write.
func TestRuntimeRouting(t *testing.T) {
	const n, p = 16, 4
	rt := newRuntime(p, n, 0)
	err := rt.MPCRound("send", n, func(m int, _ []ampc.SimMessage, send func(ampc.SimMessage)) {
		lo, hi := ampc.BlockRange(m, n, p)
		for v := lo; v < hi; v++ {
			send(ampc.SimMessage{Dst: (v + 1) % n, A: int64(v)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	received := make([]int64, n)
	err = rt.MPCRound("receive", n, func(m int, inbox []ampc.SimMessage, _ func(ampc.SimMessage)) {
		lo, hi := ampc.BlockRange(m, n, p)
		for _, msg := range inbox {
			if msg.Dst < lo || msg.Dst >= hi {
				t.Errorf("machine %d received a message for vertex %d outside [%d,%d)", m, msg.Dst, lo, hi)
				continue
			}
			received[msg.Dst] = msg.A
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if want := int64((v + n - 1) % n); received[v] != want {
			t.Fatalf("vertex %d received %d, want %d", v, received[v], want)
		}
	}
	if len(rt.Stats()) != 2 {
		t.Fatalf("Rounds = %d", len(rt.Stats()))
	}
	st := rt.Stats()[0]
	if st.Writes != n {
		t.Fatalf("sent %d messages, want %d", st.Writes, n)
	}
	if st.MaxMachineWrites < n/p {
		t.Fatalf("MaxMachineWrites = %d, want >= %d", st.MaxMachineWrites, n/p)
	}
}

// TestOwnerConsistentWithRange checks that every vertex's owner, the
// machine whose MPCRound inbox holds its messages, has it in its range.
func TestOwnerConsistentWithRange(t *testing.T) {
	const n, p = 23, 5
	for v := 0; v < n; v++ {
		m := ampc.BlockOwner(v, n, p)
		lo, hi := ampc.BlockRange(m, n, p)
		if v < lo || v >= hi {
			t.Fatalf("vertex %d: owner %d range [%d,%d)", v, m, lo, hi)
		}
	}
}

func TestRuntimePanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LabelPropagation with P = 0 did not panic")
		}
	}()
	LabelPropagation(graph.Path(4), 0)
}

// figure1P is the machine count cmd/figure1 runs the baselines with.
const figure1P = 64

// pathList returns the list 0 -> 1 -> ... -> n-1 as a successor array.
func pathList(n int) []int {
	next := make([]int, n)
	for i := 0; i < n-1; i++ {
		next[i] = i + 1
	}
	next[n-1] = -1
	return next
}

// TestFigure1Column pins the MPC column cmd/figure1 -quick prints, on the
// same generators and seeds, and checks every output against its
// sequential oracle. A round count that moves here moves the figure.
func TestFigure1Column(t *testing.T) {
	for _, tc := range []struct {
		n                              int
		twoCycle, grid, gnm, forest    int
		boruvka, phases, luby, lubyIts int
		proxy                          int
	}{
		{n: 512, twoCycle: 33, grid: 44, gnm: 7, forest: 13, boruvka: 18, phases: 6, luby: 12, lubyIts: 3, proxy: 43},
		{n: 2048, twoCycle: 39, grid: 90, gnm: 7, forest: 18, boruvka: 18, phases: 6, luby: 16, lubyIts: 4, proxy: 51},
	} {
		n := tc.n
		check := func(what string, got, want int) {
			t.Helper()
			if got != want {
				t.Errorf("n=%d %s = %d, want %d", n, what, got, want)
			}
		}
		components := func(what string, g *graph.Graph) int {
			t.Helper()
			res, err := LabelPropagation(g, figure1P)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, what, err)
			}
			if !graph.SameLabeling(res.Components, graph.Components(g)) {
				t.Errorf("n=%d %s: wrong components", n, what)
			}
			return res.Rounds
		}

		single := n%3 != 0
		tcRes, err := TwoCycle(graph.TwoCycleInstance(n, single, rng.New(uint64(n), 1)), figure1P)
		if err != nil {
			t.Fatal(err)
		}
		check("2-cycle rounds", tcRes.Rounds, tc.twoCycle)
		if tcRes.SingleCycle != single {
			t.Errorf("n=%d 2-cycle: SingleCycle = %v, want %v", n, tcRes.SingleCycle, single)
		}

		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		check("label-prop grid rounds", components("grid", graph.Grid(side, side)), tc.grid)
		check("label-prop gnm rounds", components("gnm", graph.ConnectedGNM(n, 4*n, rng.New(uint64(n), 2))), tc.gnm)
		check("label-prop forest rounds", components("forest", graph.RandomForest(n, 8, rng.New(uint64(n), 5))), tc.forest)

		r := rng.New(uint64(n), 3)
		wg := graph.WithRandomWeights(graph.ConnectedGNM(n, 4*n, r), r)
		msf, err := BoruvkaMSF(wg, figure1P)
		if err != nil {
			t.Fatal(err)
		}
		check("boruvka rounds", msf.Rounds, tc.boruvka)
		check("boruvka phases", msf.Phases, tc.phases)
		if got, want := graph.TotalWeight(msf.Edges), graph.TotalWeight(graph.KruskalMSF(wg)); got != want {
			t.Errorf("n=%d boruvka weight = %d, want %d", n, got, want)
		}

		r = rng.New(uint64(n), 4)
		g := graph.GNM(n, 4*n, r)
		mis, err := LubyMIS(g, figure1P, r)
		if err != nil {
			t.Fatal(err)
		}
		check("luby rounds", mis.Rounds, tc.luby)
		check("luby iterations", mis.Iterations, tc.lubyIts)
		if !graph.IsMIS(g, mis.InMIS) {
			t.Errorf("n=%d luby: not an MIS", n)
		}

		lp := components("biconn", graph.ConnectedGNM(n, 2*n, rng.New(uint64(n), 6)))
		lr, err := PointerDoublingListRank(pathList(n), figure1P)
		if err != nil {
			t.Fatal(err)
		}
		for v, rank := range lr.Rank {
			if rank != n-1-v {
				t.Fatalf("n=%d rank[%d] = %d, want %d", n, v, rank, n-1-v)
			}
		}
		check("biconnectivity proxy rounds", 2*lp+lr.Rounds, tc.proxy)
	}
}

func TestTwoCycleDistinguishes(t *testing.T) {
	r := rng.New(1, 0)
	for _, n := range []int{8, 32, 100, 256} {
		for _, single := range []bool{true, false} {
			g := graph.TwoCycleInstance(n, single, r)
			res, err := TwoCycle(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.SingleCycle != single {
				t.Fatalf("n=%d single=%v: got %v", n, single, res.SingleCycle)
			}
		}
	}
}

func TestTwoCycleRejectsNonRegular(t *testing.T) {
	if _, err := TwoCycle(graph.Path(5), 2); err == nil {
		t.Fatal("path accepted as 2-cycle instance")
	}
}

func TestTwoCycleRoundsGrowLogarithmically(t *testing.T) {
	r := rng.New(2, 0)
	r64, err := TwoCycle(graph.TwoCycleInstance(64, true, r), 4)
	if err != nil {
		t.Fatal(err)
	}
	r4096, err := TwoCycle(graph.TwoCycleInstance(4096, true, r), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4096.Rounds <= r64.Rounds {
		t.Fatalf("rounds did not grow with n: %d (n=64) vs %d (n=4096)", r64.Rounds, r4096.Rounds)
	}
	// Doubling steps scale with log2: 64x larger n adds ~6 steps of 3 rounds.
	if r4096.Rounds > r64.Rounds+3*8 {
		t.Fatalf("rounds grew faster than logarithmic: %d vs %d", r64.Rounds, r4096.Rounds)
	}
}

func TestLubyMISValid(t *testing.T) {
	r := rng.New(3, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(20)},
		{"clique", graph.Clique(8)},
		{"star", graph.Star(10)},
		{"gnm", graph.GNM(60, 150, r)},
		{"sparse", graph.GNM(40, 10, r)},
	} {
		res, err := LubyMIS(tc.g, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMIS(tc.g, res.InMIS) {
			t.Fatalf("%s: Luby output is not an MIS", tc.name)
		}
		if res.Rounds != 4*res.Iterations {
			t.Fatalf("%s: rounds=%d != 4*iterations=%d", tc.name, res.Rounds, res.Iterations)
		}
	}
}

func TestLubyMISIsolatedVertices(t *testing.T) {
	// A graph with no edges: every vertex joins in the first iteration.
	g := graph.MustGraph(7, nil)
	res, err := LubyMIS(g, 2, rng.New(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
}

func TestLubyCliqueOneWinner(t *testing.T) {
	res, err := LubyMIS(graph.Clique(12), 3, rng.New(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range res.InMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("clique MIS size = %d, want 1", count)
	}
}

func TestBoruvkaMatchesKruskal(t *testing.T) {
	r := rng.New(6, 0)
	for _, tc := range []struct {
		name string
		g    *graph.WeightedGraph
	}{
		{"cycle", graph.WithRandomWeights(graph.Cycle(16), r)},
		{"gnm", graph.WithRandomWeights(graph.ConnectedGNM(50, 120, r), r)},
		{"forest-input", graph.WithRandomWeights(graph.RandomForest(40, 5, r), r)},
		{"two-comps", graph.WithRandomWeights(graph.Union(graph.Cycle(10), graph.Clique(6)), r)},
	} {
		res, err := BoruvkaMSF(tc.g, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.KruskalMSF(tc.g)
		if len(res.Edges) != len(want) {
			t.Fatalf("%s: %d MSF edges, want %d", tc.name, len(res.Edges), len(want))
		}
		if graph.TotalWeight(res.Edges) != graph.TotalWeight(want) {
			t.Fatalf("%s: MSF weight %d, want %d", tc.name, graph.TotalWeight(res.Edges), graph.TotalWeight(want))
		}
	}
}

func TestBoruvkaPhasesLogarithmic(t *testing.T) {
	r := rng.New(7, 0)
	g := graph.WithRandomWeights(graph.Cycle(1024), r)
	res, err := BoruvkaMSF(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A cycle halves its component count per phase: ~log2(1024)=10 phases
	// plus termination slack.
	if res.Phases < 5 || res.Phases > 14 {
		t.Fatalf("phases = %d, want ~log2(1024)", res.Phases)
	}
}

func TestLabelPropagationComponents(t *testing.T) {
	r := rng.New(8, 0)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(50, 60, r)},
		{"forest", graph.RandomForest(60, 7, r)},
		{"grid", graph.Grid(6, 8)},
		{"empty", graph.MustGraph(10, nil)},
	} {
		res, err := LabelPropagation(tc.g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.SameLabeling(res.Components, graph.Components(tc.g)) {
			t.Fatalf("%s: wrong components", tc.name)
		}
	}
}

func TestLabelPropagationRoundsTrackDiameter(t *testing.T) {
	shallow, err := LabelPropagation(graph.Star(256), 4)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := LabelPropagation(graph.Path(256), 4)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Rounds <= shallow.Rounds {
		t.Fatalf("path rounds (%d) should exceed star rounds (%d)", deep.Rounds, shallow.Rounds)
	}
	if deep.Rounds < 128 {
		t.Fatalf("path-256 rounds = %d, want ~diameter", deep.Rounds)
	}
}

func TestPointerDoublingListRank(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000} {
		next := make([]int, n)
		for i := 0; i < n-1; i++ {
			next[i] = i + 1
		}
		next[n-1] = -1
		res, err := PointerDoublingListRank(next, 4)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if res.Rank[v] != n-1-v {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, v, res.Rank[v], n-1-v)
			}
		}
	}
}

func TestPointerDoublingPermutedList(t *testing.T) {
	// Build a list in permuted vertex order and check ranks.
	r := rng.New(9, 0)
	const n = 64
	order := r.Perm(n)
	next := make([]int, n)
	for i := 0; i < n-1; i++ {
		next[order[i]] = order[i+1]
	}
	next[order[n-1]] = -1
	res, err := PointerDoublingListRank(next, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pos, v := range order {
		if res.Rank[v] != n-1-pos {
			t.Fatalf("rank[%d] = %d, want %d", v, res.Rank[v], n-1-pos)
		}
	}
}

func TestListRankRoundsLogarithmic(t *testing.T) {
	mk := func(n int) []int {
		next := make([]int, n)
		for i := 0; i < n-1; i++ {
			next[i] = i + 1
		}
		next[n-1] = -1
		return next
	}
	small, err := PointerDoublingListRank(mk(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := PointerDoublingListRank(mk(4096), 4)
	if err != nil {
		t.Fatal(err)
	}
	if large.Rounds <= small.Rounds {
		t.Fatal("list-rank rounds did not grow with n")
	}
	if large.Rounds > small.Rounds*3 {
		t.Fatalf("list-rank rounds grew super-logarithmically: %d vs %d", small.Rounds, large.Rounds)
	}
}
