package graph

import (
	"testing"
	"testing/quick"

	"ampc/internal/rng"
)

func TestNewGraphBasics(t *testing.T) {
	g := MustGraph(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < 4; v++ {
		if g.Deg(v) != 2 {
			t.Fatalf("deg(%d) = %d", v, g.Deg(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.HasEdge(0, 0) || g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Fatal("degenerate HasEdge arguments accepted")
	}
}

func TestNewGraphRejectsBadInput(t *testing.T) {
	if _, err := NewGraph(-1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := NewGraph(3, []Edge{{1, 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustGraph(5, []Edge{{3, 0}, {3, 4}, {3, 1}, {3, 2}})
	ns := g.Neighbors(3)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
	if g.Neighbor(3, 0) != 0 || g.Neighbor(3, 3) != 4 {
		t.Fatal("Neighbor indexing wrong")
	}
	if g.MaxDeg() != 4 {
		t.Fatalf("MaxDeg = %d", g.MaxDeg())
	}
}

func TestCycleShape(t *testing.T) {
	g := Cycle(10)
	if g.N() != 10 || g.M() != 10 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Deg(v) != 2 {
			t.Fatalf("deg(%d)=%d", v, g.Deg(v))
		}
	}
	if NumComponents(g) != 1 {
		t.Fatal("cycle not connected")
	}
}

func TestTwoCyclesShape(t *testing.T) {
	g := TwoCycles(12)
	if g.N() != 12 || g.M() != 12 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if NumComponents(g) != 2 {
		t.Fatalf("components = %d, want 2", NumComponents(g))
	}
}

func TestTwoCycleInstance(t *testing.T) {
	r := rng.New(7, 0)
	for _, single := range []bool{true, false} {
		g := TwoCycleInstance(64, single, r)
		want := 2
		if single {
			want = 1
		}
		if got := NumComponents(g); got != want {
			t.Fatalf("single=%v: components=%d want %d", single, got, want)
		}
		for v := 0; v < g.N(); v++ {
			if g.Deg(v) != 2 {
				t.Fatalf("relabelled instance degree %d != 2", g.Deg(v))
			}
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	r := rng.New(3, 1)
	g := GNM(30, 60, r)
	perm := r.Perm(30)
	h := Relabel(g, perm)
	if h.M() != g.M() {
		t.Fatalf("edge count changed: %d -> %d", g.M(), h.M())
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(perm[e.U], perm[e.V]) {
			t.Fatalf("edge %v lost under relabeling", e)
		}
	}
}

func TestPathStarCliqueGrid(t *testing.T) {
	if g := Path(5); g.M() != 4 || Diameter(g) != 4 {
		t.Fatal("path shape wrong")
	}
	if g := Star(6); g.M() != 5 || g.Deg(0) != 5 || Diameter(g) != 2 {
		t.Fatal("star shape wrong")
	}
	if g := Clique(5); g.M() != 10 || Diameter(g) != 1 {
		t.Fatal("clique shape wrong")
	}
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("grid N=%d M=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 5 {
		t.Fatalf("grid diameter = %d, want 5", d)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		g := RandomTree(n, rng.New(seed, 0))
		return g.M() == n-1 && IsForest(g) && NumComponents(g) == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomForestShape(t *testing.T) {
	check := func(seed uint64, nRaw, tRaw uint8) bool {
		n := int(nRaw)%100 + 1
		trees := int(tRaw)%n + 1
		g := RandomForest(n, trees, rng.New(seed, 1))
		return IsForest(g) && NumComponents(g) == trees && g.M() == n-trees
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 || g.M() != 19 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !IsForest(g) || NumComponents(g) != 1 {
		t.Fatal("caterpillar is not a tree")
	}
}

func TestGNMProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 5
		m := n * 2
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := GNM(n, m, rng.New(seed, 2))
		return g.N() == n && g.M() == m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedGNM(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		m := n + 10
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := ConnectedGNM(n, m, rng.New(seed, 3))
		return g.M() == m && NumComponents(g) == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnion(t *testing.T) {
	g := Union(Cycle(4), Path(3))
	if g.N() != 7 || g.M() != 6 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if NumComponents(g) != 2 {
		t.Fatal("union components wrong")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"cycle2":      func() { Cycle(2) },
		"twocycleodd": func() { TwoCycles(7) },
		"gnm-too-big": func() { GNM(3, 10, rng.New(1, 1)) },
		"forest0":     func() { RandomForest(3, 0, rng.New(1, 1)) },
		"cgnm-sparse": func() { ConnectedGNM(5, 2, rng.New(1, 1)) },
		"cgnm-dense":  func() { ConnectedGNM(3, 4, rng.New(1, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightedGraph(t *testing.T) {
	g := MustWeightedGraph(3, []WeightedEdge{{0, 1, 5}, {1, 2, 3}})
	if g.Weight(0, 1) != 5 || g.Weight(1, 0) != 5 {
		t.Fatal("weight lookup failed")
	}
	if TotalWeight(g.WeightedEdges()) != 8 {
		t.Fatal("TotalWeight wrong")
	}
	if _, err := NewWeightedGraph(3, []WeightedEdge{{0, 1, 5}, {1, 2, 5}}); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	_, err := NewWeightedGraph(4, []WeightedEdge{{0, 1, 9}, {1, 2, 9}, {2, 3, 4}, {0, 3, 4}})
	if want := "graph: duplicate weight 4 (MSF uniqueness requires distinct weights)"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}

	// Weights given in shuffled order with flipped endpoints land on their
	// edges, in both directions, and read back in canonical order.
	r := rng.New(12, 0)
	base := GNM(300, 2000, r)
	in := make([]WeightedEdge, base.M())
	for i, e := range base.Edges() {
		in[i] = WeightedEdge{e.V, e.U, int64(3*i + 7)}
	}
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	wg := MustWeightedGraph(300, in)
	for _, e := range in {
		if wg.Weight(e.U, e.V) != e.Weight || wg.Weight(e.V, e.U) != e.Weight {
			t.Fatalf("Weight(%d, %d) = %d, want %d", e.U, e.V, wg.Weight(e.U, e.V), e.Weight)
		}
	}
	for i, e := range wg.WeightedEdges() {
		if e.U != base.Edges()[i].U || e.V != base.Edges()[i].V || e.Weight != int64(3*i+7) {
			t.Fatalf("WeightedEdges()[%d] = %+v", i, e)
		}
	}
	for u := 0; u < 300; u++ {
		for v := 0; v < 300; v++ {
			if i := wg.EdgeIndex(u, v); (i >= 0) != base.HasEdge(u, v) || i >= 0 && base.Edges()[i] != (Edge{u, v}).Canon() {
				t.Fatalf("EdgeIndex(%d, %d) = %d", u, v, i)
			}
		}
	}
	if wg.EdgeIndex(-1, 3) != -1 || wg.EdgeIndex(3, 300) != -1 {
		t.Fatal("out-of-range EdgeIndex found an edge")
	}
}

func TestWithRandomWeightsDistinct(t *testing.T) {
	r := rng.New(11, 0)
	g := WithRandomWeights(GNM(40, 100, r), r)
	seen := map[int64]bool{}
	for _, e := range g.WeightedEdges() {
		if seen[e.Weight] {
			t.Fatalf("duplicate weight %d", e.Weight)
		}
		seen[e.Weight] = true
	}
}

func TestWeightedEdgeCanonical(t *testing.T) {
	e := WeightedEdge{U: 5, V: 2, Weight: 9}.Canonical()
	if e.U != 2 || e.V != 5 || e.Weight != 9 {
		t.Fatalf("Canonical = %+v", e)
	}
	same := WeightedEdge{U: 1, V: 3, Weight: 4}.Canonical()
	if same.U != 1 || same.V != 3 {
		t.Fatalf("already-canonical changed: %+v", same)
	}
}
