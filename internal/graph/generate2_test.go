package graph

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ampc/internal/rng"
)

func TestChungLuShape(t *testing.T) {
	r := rng.New(200, 0)
	g := ChungLu(2000, 8000, 2.5, r)
	if g.N() != 2000 || g.M() != 8000 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	// Power-law skew: the top-1% vertices by degree should hold far more
	// than 1% of the endpoints.
	degs := make([]int, g.N())
	for v := range degs {
		degs[v] = g.Deg(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	for _, d := range degs[:20] {
		top += d
	}
	if float64(top) < 0.05*float64(2*g.M()) {
		t.Fatalf("top-1%% of vertices hold only %d of %d endpoints: no skew", top, 2*g.M())
	}
}

func TestChungLuProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%80 + 5
		r := rng.New(seed, 1)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := ChungLu(n, m, 2.3, r)
		return g.N() == n && g.M() == m
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChungLuDegenerateFallback(t *testing.T) {
	// Near-complete graph forces the rejection loop into the fallback.
	r := rng.New(201, 0)
	n := 8
	m := n*(n-1)/2 - 1
	g := ChungLu(n, m, 3.0, r)
	if g.M() != m {
		t.Fatalf("M = %d, want %d", g.M(), m)
	}
}

func TestChungLuPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"gamma":  func() { ChungLu(10, 5, 1.0, rng.New(1, 1)) },
		"too-m":  func() { ChungLu(4, 100, 2.5, rng.New(1, 1)) },
		"bi-too": func() { Bipartite(2, 2, 100, rng.New(1, 1)) },
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

func TestPowerLawDeterministic(t *testing.T) {
	a := PowerLaw(500, 2000, rng.New(42, 3))
	b := PowerLaw(500, 2000, rng.New(42, 3))
	if a.N() != 500 || a.M() != 2000 {
		t.Fatalf("N=%d M=%d", a.N(), a.M())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs across identical seeds: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestHubCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {50, 1}, {100, 1}, {199, 1}, {200, 2}, {10000, 100},
	} {
		if got := HubCount(tc.n); got != tc.want {
			t.Errorf("HubCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSkewedDegreeShape(t *testing.T) {
	r := rng.New(300, 0)
	n, m, hubs := 2000, 8000, HubCount(2000)
	g := SkewedDegree(n, m, hubs, r)
	if g.N() != n || g.M() != m {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	// Every edge touches the hub set, so hubs hold >= half of all endpoints.
	hubEnds := 0
	for v := 0; v < hubs; v++ {
		hubEnds += g.Deg(v)
	}
	if hubEnds < m {
		t.Fatalf("hub set holds %d of %d endpoints: edges escaped the hub set", hubEnds, 2*m)
	}
	for _, e := range g.Edges() {
		if e.U >= hubs && e.V >= hubs {
			t.Fatalf("edge %v touches no hub", e)
		}
	}
}

func TestSkewedDegreeProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%80 + 5
		r := rng.New(seed, 4)
		hubs := HubCount(n)
		maxM := hubs*(n-hubs) + hubs*(hubs-1)/2
		m := r.Intn(maxM + 1)
		g := SkewedDegree(n, m, hubs, r)
		return g.N() == n && g.M() == m
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedDegreeDegenerateFallback(t *testing.T) {
	// m at the hub-incident maximum forces the rejection loop into the
	// deterministic fill.
	n, hubs := 12, 3
	m := hubs*(n-hubs) + hubs*(hubs-1)/2
	g := SkewedDegree(n, m, hubs, rng.New(301, 0))
	if g.M() != m {
		t.Fatalf("M = %d, want %d", g.M(), m)
	}
}

func TestSkewedDegreePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"hubs-zero": func() { SkewedDegree(10, 5, 0, rng.New(1, 1)) },
		"hubs-big":  func() { SkewedDegree(10, 5, 11, rng.New(1, 1)) },
		"too-m":     func() { SkewedDegree(10, 1000, 1, rng.New(1, 1)) },
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

func TestBipartiteIsBipartite(t *testing.T) {
	check := func(seed uint64, aRaw, bRaw uint8) bool {
		a := int(aRaw)%30 + 1
		b := int(bRaw)%30 + 1
		r := rng.New(seed, 2)
		m := r.Intn(a*b + 1)
		g := Bipartite(a, b, m, r)
		if g.N() != a+b || g.M() != m {
			return false
		}
		for _, e := range g.Edges() {
			left := e.U < a
			right := e.V >= a
			if !left || !right {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateContract: every kind builds at a valid spec, and a spec
// outside its generator's contract is refused with the reason instead of
// reaching the generator (which would panic, or for cgnm spin).
func TestGenerateContract(t *testing.T) {
	for _, kind := range []string{"gnm", "cgnm", "powerlaw", "skew", "cycle", "cycle2", "grid", "path", "star", "tree", "forest", "clique"} {
		g, err := Generate(kind, 36, 35, 3, rng.New(1, 0))
		if err != nil || g.N() == 0 {
			t.Fatalf("Generate(%s, 36, 35, 3): %v", kind, err)
		}
	}
	h := HubCount(50)
	for _, tc := range []struct {
		kind        string
		n, m, trees int
		want        string
	}{
		{"gnm", 0, 0, 1, "needs n >= 1"},
		{"gnm", 10, -1, 1, "negative"},
		{"gnm", 1, 4, 1, "exceeds n(n-1)/2=0"},
		{"powerlaw", 5, 11, 1, "exceeds n(n-1)/2=10"},
		{"skew", 50, h*(50-h) + h*(h-1)/2 + 1, 1, "exceeds h(n-h)+h(h-1)/2"},
		{"cgnm", 100, 50, 1, "below n-1"},
		{"cycle", 2, 0, 1, "n >= 3"},
		{"cycle2", 7, 0, 1, "even n >= 6"},
		{"forest", 5, 0, 0, "trees >= 1"},
		{"forest", 5, 0, 10, "trees=10 exceeds n=5"},
		{"dodecahedron", 10, 0, 1, "unknown graph kind"},
	} {
		_, err := Generate(tc.kind, tc.n, tc.m, tc.trees, rng.New(1, 0))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Generate(%s, %d, %d, %d) = %v, want an error mentioning %q", tc.kind, tc.n, tc.m, tc.trees, err, tc.want)
		}
	}
	// The largest skew spec the bound admits still builds.
	if _, err := Generate("skew", 50, h*(50-h)+h*(h-1)/2, 1, rng.New(1, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestPathList pins the shared list workload: successors in order, the
// last -1, an empty list for n = 0, and a negative n refused with its
// reason instead of a makeslice panic.
func TestPathList(t *testing.T) {
	for n, want := range map[int][]int{0: {}, 1: {-1}, 4: {1, 2, 3, -1}} {
		if got, err := PathList(n); err != nil || !slices.Equal(got, want) {
			t.Errorf("PathList(%d) = %v, %v; want %v", n, got, err, want)
		}
	}
	if got, err := PathList(-1); err == nil || got != nil || !strings.Contains(err.Error(), "n=-1 is negative") {
		t.Errorf("PathList(-1) = %v, %v; want a refusal", got, err)
	}
}
