package dds

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomPairs generates n pairs whose keys are drawn from a space of
// roughly n/dup distinct keys, so duplicate-key chains are long and the
// overflow slab is exercised hard. Values encode the write position, making
// index-order mismatches visible.
func randomPairs(r *rand.Rand, n, dup int) []KV {
	keySpace := n/dup + 1
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{
			Key:   Key{Tag: uint8(r.Intn(3) + 1), A: int64(r.Intn(keySpace)), B: int64(r.Intn(4))},
			Value: Value{A: int64(i), B: int64(r.Intn(1 << 30))},
		}
	}
	return pairs
}

// reference is the model answer: a plain map of value slices in input order,
// the structure the flat index replaced.
func reference(pairs []KV) map[Key][]Value {
	m := make(map[Key][]Value)
	for _, kv := range pairs {
		m[kv.Key] = append(m[kv.Key], kv.Value)
	}
	return m
}

// checkAgainstReference asserts that s answers Get, GetRange and Count
// exactly like the reference map, including for keys that are absent.
// It takes the backend interface, so the in-memory store and every
// serialized backend are held to identical semantics.
func checkAgainstReference(t *testing.T, s StoreBackend, ref map[Key][]Value, probeAbsent []Key) {
	t.Helper()
	for k, vs := range ref {
		if got := s.Count(k); got != len(vs) {
			t.Fatalf("Count(%v) = %d, want %d", k, got, len(vs))
		}
		v, ok := s.Get(k)
		if !ok || v != vs[0] {
			t.Fatalf("Get(%v) = %v ok=%v, want %v", k, v, ok, vs[0])
		}
		for i, want := range vs {
			if got := s.GetRange(k, i, i+1, nil); len(got) != 1 || got[0] != want {
				t.Fatalf("GetRange(%v, %d, %d) = %v, want %v", k, i, i+1, got, want)
			}
		}
		if got := s.GetRange(k, len(vs), len(vs)+1, nil); len(got) != 0 {
			t.Fatalf("GetRange(%v) beyond count returned %v", k, got)
		}
		if got := s.GetRange(k, 0, len(vs), nil); len(got) != len(vs) {
			t.Fatalf("GetRange(%v) returned %d values, want %d", k, len(got), len(vs))
		} else {
			for i := range got {
				if got[i] != vs[i] {
					t.Fatalf("GetRange(%v)[%d] = %v, want %v", k, i, got[i], vs[i])
				}
			}
		}
		// Partial window past the end: indices beyond count are skipped.
		mid := len(vs) / 2
		if got := s.GetRange(k, mid, len(vs)+2, nil); len(got) != len(vs)-mid {
			t.Fatalf("GetRange(%v, %d, %d) returned %d values, want %d",
				k, mid, len(vs)+2, len(got), len(vs)-mid)
		} else {
			for i := range got {
				if got[i] != vs[mid+i] {
					t.Fatalf("GetRange(%v) window [%d:] index %d = %v, want %v", k, mid, i, got[i], vs[mid+i])
				}
			}
		}
	}
	for _, k := range probeAbsent {
		if _, ok := ref[k]; ok {
			continue
		}
		if _, got := s.Get(k); got {
			t.Fatalf("absent key %v reported present", k)
		}
		if got := s.Count(k); got != 0 {
			t.Fatalf("Count of absent key %v = %d", k, got)
		}
	}
}

// TestFlatStoreMatchesReference is the property test for the flat index:
// random pair sets with heavy duplicate keys must answer every read exactly
// like a map[Key][]Value built in the same order.
func TestFlatStoreMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(3000) + 1
		dup := []int{1, 3, 16, 200}[trial%4]
		p := r.Intn(16) + 1
		pairs := randomPairs(r, n, dup)
		ref := reference(pairs)
		s := NewStore(pairs, p, r.Uint64())
		absent := make([]Key, 50)
		for i := range absent {
			absent[i] = Key{Tag: 9, A: int64(r.Intn(n + 1)), B: int64(r.Intn(8))}
		}
		checkAgainstReference(t, s, ref, absent)
		sum := 0
		for _, sz := range s.ShardSizes() {
			sum += sz
		}
		if sum != n || s.Len() != n {
			t.Fatalf("trial %d: sizes sum %d, Len %d, want %d", trial, sum, s.Len(), n)
		}
	}
}

// TestParallelFreezeMatchesSequential asserts that the freeze is
// byte-identical to the counting-build oracle whatever its execution shape:
// one to eight insert tasks under nil, reversed and pinned-striped
// schedulers, fresh and dirty arenas, shard counts from 1 to 512 and
// duplicate factors 1, 4 and 100 — same shard sizes, same duplicate-key
// index assignment, same bytes.
func TestParallelFreezeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, p := range []int{1, 3, 16, 64, 512} {
		for _, dup := range []int{1, 4, 100} {
			pairs := randomPairs(r, r.Intn(4000)+4096, dup)
			salt := r.Uint64()
			want := oracleStore(pairs, p, salt)
			wantBytes := AppendSegment(nil, want)
			// A store four times larger, from its own rng so the inputs
			// above stay as they were.
			larger := randomPairs(rand.New(rand.NewSource(int64(p*dup))), 4*len(pairs), dup)
			for _, workers := range []int{1, 2, 3, 8} {
				for ri, run := range []Parallel{nil, reverseRun, stripedRun} {
					for dirty, retired := range [][]KV{nil, pairs, larger} {
						// A dirty arena holds a retired store of another salt:
						// recycled tables and slabs must not leak into the
						// build. Tables of the larger store are resliced
						// down and keep stale slots and bitmap words past
						// the new length.
						a := NewArena()
						if retired != nil {
							a.Recycle(NewStore(retired, p, salt^1))
						}
						got := freezePairs(pairs, 7, p, salt, workers, run, a)
						if !bytes.Equal(AppendSegment(nil, got), wantBytes) {
							t.Fatalf("p=%d dup=%d workers=%d run=%d dirty=%d: freeze differs from the oracle",
								p, dup, workers, ri, dirty)
						}
					}
				}
			}
			compareStores(t, want, NewStore(pairs, p, salt))
		}
	}
}

// TestFreezeStashSpansChunks holds freezes whose insert tasks each stash
// more than one chunk of duplicate-key values to the oracle, at 1 to 4
// tasks, alone and emitted on top of a base, so every task's backward
// placement crosses chunk boundaries. randomPairs at dup=100 makes about
// nine pairs in ten a duplicate value.
func TestFreezeStashSpansChunks(t *testing.T) {
	const machines, p = 7, 16
	r := rand.New(rand.NewSource(52))
	salt := r.Uint64()
	base := randomPairs(r, 2*dupChunk, 100)
	top := randomPairs(r, 12*dupChunk, 100)
	for _, calls := range [][][]KV{{top}, {base, top}} {
		var concat []KV
		for _, pairs := range calls {
			concat = append(concat, pairs...)
		}
		want := AppendSegment(nil, oracleStore(concat, p, salt))
		for workers := 1; workers <= 4; workers++ {
			b := NewBuilder(machines)
			got := freezeChainOn(b, calls, machines, p, salt, workers, NewArena())
			for k := range workers {
				if b.dups[k].used < 2 {
					t.Fatalf("calls=%d workers=%d: task %d stashed %d chunks, want more than one",
						len(calls), workers, k, b.dups[k].used)
				}
			}
			if !bytes.Equal(AppendSegment(nil, got), want) {
				t.Fatalf("calls=%d workers=%d: freeze differs from the oracle", len(calls), workers)
			}
		}
	}
}

// TestBuilderParallelFreezeMatchesSequential covers the public Builder
// path: many machines write interleaved duplicate keys, and Freeze (parallel
// for large rounds) must agree with the oracle over the machine-id-order
// merge at every shard count.
func TestBuilderParallelFreezeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const machines, salt = 64, 99
	for _, p := range []int{1, 3, 16, 64, 512} {
		b := NewBuilder(machines)
		b.Prime(p, salt)
		for m := 0; m < machines; m++ {
			w := b.Writer(m)
			for i := 0; i < 150; i++ {
				k := Key{Tag: 1, A: int64(r.Intn(400))}
				w.Write(k, Value{A: int64(m), B: int64(i)})
			}
		}
		par := b.Freeze(p, salt)
		if !bytes.Equal(AppendSegment(nil, par), AppendSegment(nil, oracleStore(pairsOf(b), p, salt))) {
			t.Fatalf("p=%d: builder freeze differs from the oracle", p)
		}
		// Duplicate order must also match a map built from the merged pairs.
		checkAgainstReference(t, par, reference(pairsOf(b)), nil)
	}
}

// compareStores asserts two stores hold identical contents: shard sizes and
// every key's full indexed value sequence.
func compareStores(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	as, bs := a.ShardSizes(), b.ShardSizes()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("shard %d size %d vs %d", i, as[i], bs[i])
		}
	}
	// Walk every slot of a and demand identical indexed reads from b.
	for si := range a.shards {
		sh := &a.shards[si]
		for j := range sh.slots {
			if !sh.occupied(uint64(j)) {
				continue
			}
			sl := &sh.slots[j]
			k := sh.key(sl)
			count := sh.count(sl)
			if got := b.Count(k); got != count {
				t.Fatalf("key %v count %d vs %d", k, count, got)
			}
			got := b.GetRange(k, 0, count, nil)
			for i := 0; i < count; i++ {
				if want := sh.value(sl, i); i >= len(got) || got[i] != want {
					t.Fatalf("key %v index %d: want %v, got %v", k, i, want, got)
				}
			}
		}
	}
}
