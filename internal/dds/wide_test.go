package dds

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// wideWords are the boundary words of a slot's int32 fields: each side of
// both int32 limits, and the int64 extremes.
var wideWords = []int64{0, 1, -1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}

// widePairs mixes narrow and wide records: the named shapes first — a
// narrow key with a wide value, a wide key with a narrow one, a duplicate
// chain whose narrow and wide values interleave under a wide key and under
// a narrow one, a narrow key one past a wide one — then every boundary word
// in every key and value field, then n random pairs over a small key pool
// drawing half their words from the boundaries, so duplicate chains mix
// narrow and wide values and keys.
func widePairs(r *rand.Rand, n int) []KV {
	wk := Key{Tag: 2, A: 7, B: math.MinInt32 - 1}
	nk := Key{Tag: 2, A: 7, B: math.MinInt32}
	pairs := []KV{
		{Key{Tag: 1, A: 5, B: 5}, Value{A: math.MaxInt64}},
		{Key{Tag: 1, A: math.MaxInt32 + 1}, Value{A: 1, B: -1}},
		{wk, Value{A: 1}}, {nk, Value{B: math.MinInt64}},
		{wk, Value{A: math.MinInt64, B: 1}}, {nk, Value{A: 3}},
		{wk, Value{A: 3, B: 3}}, {nk, Value{A: math.MaxInt32 + 1}},
		{wk, Value{A: math.MaxInt32 + 1}}, {nk, Value{A: -1, B: -1}},
	}
	for _, w := range wideWords {
		pairs = append(pairs,
			KV{Key{Tag: 3, A: w}, Value{A: w}},
			KV{Key{Tag: 3, B: w}, Value{B: w}},
			KV{Key{Tag: 0, A: w, B: w}, Value{A: w, B: -w}})
	}
	word := func() int64 {
		if r.Intn(2) == 0 {
			return wideWords[r.Intn(len(wideWords))]
		}
		return int64(r.Intn(40) - 20)
	}
	pool := make([]Key, n/4+1)
	for i := range pool {
		pool[i] = Key{Tag: uint8(r.Intn(3)), A: word(), B: word()}
	}
	for i := 0; i < n; i++ {
		pairs = append(pairs, KV{pool[r.Intn(len(pool))], Value{A: word(), B: word()}})
	}
	return pairs
}

// wideAbsent are keys no widePairs call writes (tag 9), narrow and wide.
var wideAbsent = []Key{{9, 0, 0}, {9, math.MaxInt32 + 1, 0}, {9, 0, math.MinInt64}, {9, math.MaxInt32, math.MaxInt32}}

// checkBatchReads holds GetMany and GetHashed to the reference's first
// values, over every key and the absent ones.
func checkBatchReads(t *testing.T, s *Store, ref map[Key][]Value) {
	t.Helper()
	keys := append([]Key(nil), wideAbsent...)
	for k := range ref {
		keys = append(keys, k)
	}
	vals, oks := make([]Value, len(keys)), make([]bool, len(keys))
	s.GetMany(keys, vals, oks)
	for i, k := range keys {
		vs := ref[k]
		if oks[i] != (len(vs) > 0) || len(vs) > 0 && vals[i] != vs[0] {
			t.Fatalf("GetMany(%v) = %v ok=%v, want %v", k, vals[i], oks[i], vs)
		}
		if v, ok := s.GetHashed(k, HashOf(k, s.Salt())); v != vals[i] || ok != oks[i] {
			t.Fatalf("GetHashed(%v) = %v ok=%v, GetMany %v ok=%v", k, v, ok, vals[i], oks[i])
		}
	}
}

// TestWideRecords is the differential for records whose words do not fit a
// slot's int32 fields: mixed with narrow ones, they must read back exactly
// like a reference map, and serialize to exactly the oracle's bytes, through
// every path a store takes — NewStore, a freeze onto a base holding wide
// records, a freeze into an arena dirtied by wide records, raw and packed
// segments, and OpenSection.
func TestWideRecords(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for _, p := range []int{1, 4, 16} {
		pairs := widePairs(r, 3000)
		salt := r.Uint64()
		ref := reference(pairs)
		want := AppendSegment(nil, oracleStore(pairs, p, salt))
		check := func(name string, s *Store) {
			t.Helper()
			if !bytes.Equal(AppendSegment(nil, s), want) {
				t.Fatalf("p=%d %s: segment bytes differ from the oracle", p, name)
			}
			checkAgainstReference(t, s, ref, wideAbsent)
			checkBatchReads(t, s, ref)
		}

		s := NewStore(pairs, p, salt)
		check("NewStore", s)
		half := len(pairs) / 2
		check("FreezeOnto", freezeChain([][]KV{pairs[:half], pairs[half:]}, 4, p, salt, 2, stripedRun, nil))
		dirty := NewArena()
		dirty.Recycle(NewStore(widePairs(rand.New(rand.NewSource(int64(p))), 3000), p, salt^1))
		check("dirty arena", freezePairs(pairs, 8, p, salt, 3, stripedRun, dirty))

		for _, compress := range []bool{false, true} {
			seg := appendSegment(nil, s, segOpts{compress: compress})
			path := filepath.Join(t.TempDir(), "store.seg")
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			opened, err := OpenSegment(path)
			if err != nil {
				t.Fatalf("p=%d compress=%v: OpenSegment: %v", p, compress, err)
			}
			check("OpenSegment", opened)

			sections, encs, err := sliceSections(seg)
			if err != nil {
				t.Fatal(err)
			}
			if compress && !slices.Contains(encs, encPacked) {
				t.Fatalf("p=%d: no section packed", p)
			}
			for i, sec := range sections {
				rd, err := OpenSection(sec, encs[i], i)
				if err != nil {
					t.Fatalf("p=%d section %d (encoding %d): %v", p, i, encs[i], err)
				}
				sameShard(t, &rd.sh, &s.shards[i])
				for k, vs := range ref {
					if ShardOf(k, salt, p) != i {
						continue
					}
					if v, ok := rd.Get(k); !ok || v != vs[0] || rd.Count(k) != len(vs) || !slices.Equal(rd.GetRange(k, 0, len(vs), nil), vs) {
						t.Fatalf("p=%d section %d: key %v reads %v ok=%v count %d, want %v", p, i, k, v, ok, rd.Count(k), vs)
					}
				}
				for _, k := range wideAbsent {
					if _, ok := rd.Get(k); ok || rd.Count(k) != 0 {
						t.Fatalf("p=%d section %d: absent key %v found", p, i, k)
					}
				}
			}
		}
	}
}

// TestWideSlotIsNotNarrowKey pins the wideKey flag in both compares: a wide
// key's slot holds its wkeys index 0 in ka, so it carries the very words of
// the narrow key (1, 0, 0), which the salt makes probe that slot first. The
// insert must not take one key for the other, nor a probe find either.
func TestWideSlotIsNotNarrowKey(t *testing.T) {
	wide, narrowKey := Key{Tag: 1, A: 1 << 40}, Key{Tag: 1}
	salt := uint64(0)
	for (hash(wide, salt)^hash(narrowKey, salt))>>32&3 != 0 {
		salt++
	}
	s := NewStore([]KV{{wide, Value{A: 1}}, {narrowKey, Value{A: 2}}}, 1, salt)
	checkAgainstReference(t, s, map[Key][]Value{wide: {{A: 1}}, narrowKey: {{A: 2}}}, nil)
	if _, ok := NewStore([]KV{{wide, Value{A: 1}}}, 1, salt).Get(narrowKey); ok {
		t.Fatal("a narrow key matched a wide key's slot")
	}
}
