package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"ampc/internal/dds"
	"ampc/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		r := rng.New(seed, 8)
		m := r.Intn(2*n + 1)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := GNM(n, m, r)
		store := dds.NewStore(Encode(g), 8, seed)
		h, err := Decode(store)
		if err != nil {
			return false
		}
		if h.N() != g.N() || h.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRecordCount(t *testing.T) {
	g := Cycle(10)
	pairs := Encode(g)
	want := 1 + g.N() + 2*g.M()
	if len(pairs) != want {
		t.Fatalf("len(pairs) = %d, want %d", len(pairs), want)
	}
}

func TestEncodeMeta(t *testing.T) {
	g := GNM(20, 35, rng.New(1, 9))
	s := dds.NewStore(Encode(g), 4, 2)
	meta, ok := s.Get(MetaKey())
	if !ok || meta.A != 20 || meta.B != 35 {
		t.Fatalf("meta = %v ok=%v", meta, ok)
	}
}

func TestEncodeAdjacencyConsistent(t *testing.T) {
	g := Star(6)
	s := dds.NewStore(Encode(g), 4, 3)
	d, ok := s.Get(DegKey(0))
	if !ok || d.A != 5 {
		t.Fatalf("deg(0) = %v", d)
	}
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		v, ok := s.Get(AdjKey(0, i))
		if !ok {
			t.Fatalf("adjacency %d missing", i)
		}
		seen[v.A] = true
	}
	if len(seen) != 5 {
		t.Fatalf("distinct neighbors = %d", len(seen))
	}
	if _, ok := s.Get(AdjKey(0, 5)); ok {
		t.Fatal("adjacency overrun")
	}
}

func TestEncodeWeightedCarriesWeights(t *testing.T) {
	r := rng.New(4, 0)
	g := WithRandomWeights(Cycle(8), r)
	s := dds.NewStore(EncodeWeighted(g), 4, 5)
	for v := 0; v < g.N(); v++ {
		for i := 0; i < g.Deg(v); i++ {
			rec, ok := s.Get(AdjKey(v, i))
			if !ok {
				t.Fatalf("missing adjacency (%d,%d)", v, i)
			}
			if rec.B != g.Weight(v, int(rec.A)) {
				t.Fatalf("weight mismatch on (%d,%d): %d != %d", v, int(rec.A), rec.B, g.Weight(v, int(rec.A)))
			}
		}
	}
}

func TestDecodeMissingMeta(t *testing.T) {
	s := dds.NewStore(nil, 2, 1)
	if _, err := Decode(s); err == nil {
		t.Fatal("Decode of empty store succeeded")
	}
}

func TestDecodeTruncatedAdjacency(t *testing.T) {
	// Degree claims one neighbor but the adjacency record is missing.
	pairs := []dds.KV{
		{Key: MetaKey(), Value: dds.Value{A: 2, B: 1}},
		{Key: DegKey(0), Value: dds.Value{A: 1}},
		{Key: DegKey(1), Value: dds.Value{A: 1}},
	}
	s := dds.NewStore(pairs, 2, 1)
	if _, err := Decode(s); err == nil {
		t.Fatal("truncated adjacency accepted")
	} else if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestDecodeMissingDegree(t *testing.T) {
	// A store that lost one degree record must not decode as a graph in
	// which that vertex is isolated.
	var pairs []dds.KV
	for _, kv := range Encode(Path(4)) {
		if kv.Key != DegKey(2) {
			pairs = append(pairs, kv)
		}
	}
	if _, err := Decode(dds.NewStore(pairs, 2, 1)); err != errTruncatedAdjacency {
		t.Fatalf("Decode error %v, want %v", err, errTruncatedAdjacency)
	}
}

func TestEncodeRankedOrdersByRank(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		r := rng.New(seed, 11)
		m := r.Intn(3*n + 1)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := GNM(n, m, r)
		pi := r.Perm(n)
		pairs := EncodeRanked(g, pi)
		if len(pairs) != 1+n+2*m {
			return false
		}
		store := dds.NewStore(pairs, 8, seed)
		for v := 0; v < n; v++ {
			d, ok := store.Get(DegKey(v))
			if !ok || int(d.A) != g.Deg(v) || int(d.B) != pi[v] {
				return false
			}
			// The list is a permutation of v's neighbors, each with its own
			// rank inline, strictly increasing in rank.
			seen := map[int]bool{}
			prev := int64(-1)
			for i := 0; i < g.Deg(v); i++ {
				a, ok := store.Get(AdjKey(v, i))
				if !ok || a.B <= prev || int(a.B) != pi[a.A] || !g.HasEdge(v, int(a.A)) || seen[int(a.A)] {
					return false
				}
				seen[int(a.A)] = true
				prev = a.B
			}
		}
		// The encoding still decodes as the standard one.
		h, err := Decode(store)
		return err == nil && h.N() == n && h.M() == m
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRankedEmitMatchesEncodeRanked holds the ranged emitter to the
// collected encoding: P machines emitting their blocks of an even split, at
// P = 1, 3, 7 and past the record count, write exactly EncodeRanked's
// records in order; and on a graph with isolated vertices so does every
// single range, named among them a block starting on the metadata record,
// on a degree record, inside an adjacency list and on an isolated vertex,
// and an empty one.
func TestRankedEmitMatchesEncodeRanked(t *testing.T) {
	r := rng.New(52, 3)
	// Vertices 2, 4, 6 and 7 are isolated.
	small, err := NewGraph(9, []Edge{{0, 3}, {0, 5}, {3, 5}, {5, 8}, {1, 8}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(rk *Ranked, lo, hi int) []dds.KV {
		var got kvList
		rk.Emit(&got, lo, hi)
		return got
	}
	for gi, g := range []*Graph{small, GNM(300, 900, r), GNM(1, 0, r), empty} {
		pi := r.Perm(g.N())
		want := EncodeRanked(g, pi)
		rk := NewRanked(g, pi)
		if rk.Records() != len(want) || len(want) != 1+g.N()+2*g.M() {
			t.Fatalf("graph %d: Records() = %d, EncodeRanked has %d, want %d", gi, rk.Records(), len(want), 1+g.N()+2*g.M())
		}
		for _, p := range []int{1, 3, 7, len(want) + 5} {
			var got []dds.KV
			for m := 0; m < p; m++ {
				got = append(got, emit(rk, m*len(want)/p, (m+1)*len(want)/p)...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d, P=%d: blocks emit %v, want %v", gi, p, got, want)
			}
		}
	}

	pi := r.Perm(small.N())
	want := EncodeRanked(small, pi)
	rk := NewRanked(small, pi)
	deg := func(v int) int { return 1 + v + small.offs[v] }
	for _, c := range []struct {
		name   string
		lo, hi int
	}{
		{"metadata", 0, 4},
		{"degree record", deg(3), deg(5) + 1},
		{"inside a list", deg(5) + 2, deg(8) + 1},
		{"isolated vertex", deg(6), len(want)},
		{"empty", deg(5) + 1, deg(5) + 1},
	} {
		if got := emit(rk, c.lo, c.hi); !slices.Equal(got, want[c.lo:c.hi]) {
			t.Fatalf("%s [%d, %d): emits %v, want %v", c.name, c.lo, c.hi, got, want[c.lo:c.hi])
		}
	}
	for lo := 0; lo <= len(want); lo++ {
		for hi := lo; hi <= len(want)+2; hi++ {
			if got := emit(rk, lo, hi); !slices.Equal(got, want[lo:min(hi, len(want))]) {
				t.Fatalf("[%d, %d): emits %v, want %v", lo, hi, got, want[lo:min(hi, len(want))])
			}
		}
	}
}
