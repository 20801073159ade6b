package graph

import (
	"fmt"
	"slices"
	"testing"

	"ampc/internal/rng"
)

// sameGraph fails t unless got and want have the same vertex count, edge
// list, offsets and adjacency lists.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	switch {
	case got.N() != want.N():
		t.Fatalf("%s: N = %d, want %d", name, got.N(), want.N())
	case !slices.Equal(got.Edges(), want.Edges()):
		t.Fatalf("%s: edge lists differ", name)
	case !slices.Equal(got.offs, want.offs):
		t.Fatalf("%s: offsets differ", name)
	case !slices.Equal(got.adj, want.adj):
		t.Fatalf("%s: adjacency lists differ", name)
	}
}

// TestGeneratorsMatchMapOracle pins every random generator to the
// map-deduplicating reference: the same graph, and the rng left in the same
// state, at bench scale, near-complete density, tiny n and the ChungLu
// attempt-limit fallback. A seed change must change the graph, so the
// determinism is not vacuous.
func TestGeneratorsMatchMapOracle(t *testing.T) {
	complete := func(n int) int { return n * (n - 1) / 2 }
	type generator func(n, m int, r *rng.RNG) *Graph
	gens := []struct {
		name      string
		maxM      func(n int) int
		got, want generator
	}{
		{"GNM", complete, GNM, mapGNM},
		{"ConnectedGNM", complete, ConnectedGNM, mapConnectedGNM},
		{"ChungLu", complete,
			func(n, m int, r *rng.RNG) *Graph { return ChungLu(n, m, 3.0, r) },
			func(n, m int, r *rng.RNG) *Graph { return mapChungLu(n, m, 3.0, r) }},
		{"PowerLaw", complete, PowerLaw,
			func(n, m int, r *rng.RNG) *Graph { return mapChungLu(n, m, 2.5, r) }},
		{"SkewedDegree",
			func(n int) int { h := HubCount(n); return h*(n-h) + h*(h-1)/2 },
			func(n, m int, r *rng.RNG) *Graph { return SkewedDegree(n, m, HubCount(n), r) },
			func(n, m int, r *rng.RNG) *Graph { return mapSkewedDegree(n, m, HubCount(n), r) }},
		{"Bipartite",
			func(n int) int { return n / 2 * (n - n/2) },
			func(n, m int, r *rng.RNG) *Graph { return Bipartite(n/2, n-n/2, m, r) },
			func(n, m int, r *rng.RNG) *Graph { return mapBipartite(n/2, n-n/2, m, r) }},
	}
	check := func(t *testing.T, name string, seed uint64, got, want func(r *rng.RNG) *Graph) {
		rg, rw := rng.New(seed, 0), rng.New(seed, 0)
		sameGraph(t, name, got(rg), want(rw))
		if a, b := rg.Uint64(), rw.Uint64(); a != b {
			t.Fatalf("%s: next draw %#x, want %#x", name, a, b)
		}
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 2, 3} {
				for _, size := range []struct{ n, m int }{
					{100000, 400000},
					{300, g.maxM(300)},
					{500, g.maxM(500) * 95 / 100},
					{30, g.maxM(30) / 3},
				} {
					n, m := size.n, size.m
					check(t, fmt.Sprintf("n=%d,m=%d,seed=%d", n, m, seed), seed,
						func(r *rng.RNG) *Graph { return g.got(n, m, r) },
						func(r *rng.RNG) *Graph { return g.want(n, m, r) })
				}
			}
			m := g.maxM(300) / 3
			if slices.Equal(g.got(300, m, rng.New(1, 0)).Edges(), g.got(300, m, rng.New(2, 0)).Edges()) {
				t.Fatalf("seeds 1 and 2 drew the same graph")
			}
		})
	}

	t.Run("fallback", func(t *testing.T) {
		// gamma 1.1 weighs vertex v at (v+1)^-10, so {5, 7} is drawn with
		// probability ~1e-17: only the fill can add it.
		for _, seed := range []uint64{1, 2, 3} {
			var got *Graph
			check(t, fmt.Sprintf("ChungLu seed=%d", seed), seed,
				func(r *rng.RNG) *Graph { got = ChungLu(8, 27, 1.1, r); return got },
				func(r *rng.RNG) *Graph { return mapChungLu(8, 27, 1.1, r) })
			if !got.HasEdge(5, 7) {
				t.Fatalf("seed %d: ChungLu never reached the fill", seed)
			}
		}
		// SkewedDegree's draws cover every admissible pair evenly, so its
		// limit is out of reach; at its maximum m it runs the same sampler.
		check(t, "SkewedDegree at max m", 301,
			func(r *rng.RNG) *Graph { return SkewedDegree(12, 30, 3, r) },
			func(r *rng.RNG) *Graph { return mapSkewedDegree(12, 30, 3, r) })
	})
}

// TestSampleGraphFallbackFill drives the sampler into its attempt limit
// with a draw that only repeats one edge: the shortfall comes from the
// unseen pairs in lexicographic order, here SkewedDegree's pairs for 2 hubs
// of 5 vertices.
func TestSampleGraphFallbackFill(t *testing.T) {
	g := sampleGraph(5, 7, 10, nil, func() (int, int) { return 3, 0 })
	want := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}}
	if !slices.Equal(g.Edges(), want) {
		t.Fatalf("edges %v, want %v", g.Edges(), want)
	}
}

// TestNewGraphMatchesSortOracle checks NewGraph against the sort-based
// reference on orderings the counting build treats differently (sorted,
// reversed, shuffled with flipped endpoints) and on every rejected input: the
// same graph, or the same error naming the same edge.
func TestNewGraphMatchesSortOracle(t *testing.T) {
	r := rng.New(7, 0)
	base := GNM(2000, 8000, r).Edges()
	reversed := slices.Clone(base)
	slices.Reverse(reversed)
	shuffled := slices.Clone(base)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := range shuffled {
		if r.Intn(2) == 0 {
			shuffled[i] = Edge{shuffled[i].V, shuffled[i].U}
		}
	}
	with := func(edges []Edge, at int, extra ...Edge) []Edge {
		return slices.Insert(slices.Clone(edges), at, extra...)
	}
	e0, e1 := shuffled[100], shuffled[4000]
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"sorted", 2000, base},
		{"reversed", 2000, reversed},
		{"shuffled", 2000, shuffled},
		{"empty", 0, nil},
		{"isolated", 5, nil},
		{"one edge", 2, []Edge{{1, 0}}},
		{"duplicate", 2000, with(shuffled, 3000, Edge{e0.V, e0.U})},
		{"two duplicates", 2000, with(shuffled, 50, e1, Edge{e0.V, e0.U})},
		{"sorted duplicate", 2000, with(base, 10, base[10])},
		{"self-loop", 2000, with(shuffled, 500, Edge{42, 42})},
		{"out of range", 2000, with(shuffled, 700, Edge{3, 2000})},
		{"negative endpoint", 2000, with(shuffled, 700, Edge{-1, 3})},
		{"range before loop", 2000, with(shuffled, 700, Edge{9, 9}, Edge{2000, 1})},
		{"loop before range", 2000, with(shuffled, 700, Edge{2000, 1}, Edge{9, 9})},
		{"duplicate and loop", 2000, with(shuffled, 900, e0, Edge{9, 9})},
		{"negative n", -1, nil},
	}
	for _, c := range cases {
		got, err := NewGraph(c.n, slices.Clone(c.edges))
		want, wantErr := sortNewGraph(c.n, slices.Clone(c.edges))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, want %v", c.name, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, want %q", c.name, err, wantErr)
			}
			continue
		}
		sameGraph(t, c.name, got, want)
	}
}

var benchGraph *Graph

// BenchmarkGNM times the generator end to end at the benchmark's scale and
// at a density where the tail of the sampling dominates.
func BenchmarkGNM(b *testing.B) {
	for _, c := range []struct {
		name string
		n, m int
	}{
		{"n=1e5,m=4e5", 100000, 400000},
		{"n=1000,density=0.95", 1000, 1000 * 999 / 2 * 95 / 100},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchGraph = GNM(c.n, c.m, rng.New(uint64(i)+1, 0))
			}
		})
	}
}

// BenchmarkNewGraph times the CSR build of 4·10⁵ edges given in canonical
// order, the order inline and decoded edge lists arrive in, and shuffled
// with random endpoint order.
func BenchmarkNewGraph(b *testing.B) {
	r := rng.New(1, 0)
	sorted := GNM(100000, 400000, r).Edges()
	shuffled := slices.Clone(sorted)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := range shuffled {
		if r.Intn(2) == 0 {
			shuffled[i] = Edge{shuffled[i].V, shuffled[i].U}
		}
	}
	for _, c := range []struct {
		name  string
		edges []Edge
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchGraph = MustGraph(100000, c.edges)
			}
		})
	}
}
