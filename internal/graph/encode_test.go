package graph

import (
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
