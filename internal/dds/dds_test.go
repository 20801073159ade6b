package dds

import (
	"sync"
	"testing"
	"testing/quick"
)

func kv(tag uint8, a, b, va, vb int64) KV {
	return KV{Key{tag, a, b}, Value{va, vb}}
}

// The read-path tests below run through forEachBackend, so the in-memory
// store and the stores decoded from its raw and compressed segments answer
// every case identically.

func TestGetPresent(t *testing.T) {
	forEachBackend(t, NewStore([]KV{kv(1, 2, 3, 10, 20)}, 4, 99), func(t *testing.T, s StoreBackend) {
		v, ok := s.Get(Key{1, 2, 3})
		if !ok {
			t.Fatal("key not found")
		}
		if v != (Value{10, 20}) {
			t.Fatalf("got %v", v)
		}
	})
}

func TestGetAbsent(t *testing.T) {
	forEachBackend(t, NewStore([]KV{kv(1, 2, 3, 10, 20)}, 4, 99), func(t *testing.T, s StoreBackend) {
		if _, ok := s.Get(Key{1, 2, 4}); ok {
			t.Fatal("absent key reported present")
		}
		if _, ok := s.Get(Key{2, 2, 3}); ok {
			t.Fatal("absent tag reported present")
		}
	})
}

func TestDuplicateKeyIndexing(t *testing.T) {
	pairs := []KV{
		kv(1, 5, 0, 100, 0),
		kv(1, 5, 0, 200, 0),
		kv(1, 5, 0, 300, 0),
	}
	forEachBackend(t, NewStore(pairs, 3, 7), func(t *testing.T, s StoreBackend) {
		k := Key{1, 5, 0}
		if got := s.Count(k); got != 3 {
			t.Fatalf("Count = %d, want 3", got)
		}
		for i, want := range []int64{100, 200, 300} {
			if got := s.GetRange(k, i, i+1, nil); len(got) != 1 || got[0].A != want {
				t.Fatalf("index %d: got %v, want A=%d", i, got, want)
			}
		}
		if got := s.GetRange(k, 0, 4, nil); len(got) != 3 {
			t.Fatalf("range past the count returned %v", got)
		}
		if got := s.GetRange(k, 3, 4, nil); len(got) != 0 {
			t.Fatalf("index out of range reported present: %v", got)
		}
	})
}

func TestGetReturnsFirstOfDuplicates(t *testing.T) {
	pairs := []KV{kv(1, 5, 0, 100, 0), kv(1, 5, 0, 200, 0)}
	forEachBackend(t, NewStore(pairs, 2, 7), func(t *testing.T, s StoreBackend) {
		v, ok := s.Get(Key{1, 5, 0})
		if !ok || v.A != 100 {
			t.Fatalf("Get = %v ok=%v, want first value 100", v, ok)
		}
	})
}

func TestCountAbsent(t *testing.T) {
	forEachBackend(t, NewStore(nil, 4, 1), func(t *testing.T, s StoreBackend) {
		if s.Count(Key{1, 1, 1}) != 0 {
			t.Fatal("Count of absent key != 0")
		}
	})
}

func TestLenAndShards(t *testing.T) {
	pairs := []KV{kv(1, 1, 0, 1, 0), kv(1, 2, 0, 2, 0), kv(1, 3, 0, 3, 0)}
	forEachBackend(t, NewStore(pairs, 5, 42), func(t *testing.T, s StoreBackend) {
		if s.Len() != 3 {
			t.Fatalf("Len = %d", s.Len())
		}
		if s.Shards() != 5 {
			t.Fatalf("Shards = %d", s.Shards())
		}
	})
}

func TestZeroShardsClamped(t *testing.T) {
	forEachBackend(t, NewStore([]KV{kv(1, 1, 0, 1, 0)}, 0, 1), func(t *testing.T, s StoreBackend) {
		if s.Shards() != 1 {
			t.Fatalf("Shards = %d, want clamp to 1", s.Shards())
		}
		if _, ok := s.Get(Key{1, 1, 0}); !ok {
			t.Fatal("lookup failed in single-shard store")
		}
	})
}

func TestLoadAccounting(t *testing.T) {
	forEachBackend(t, NewStore([]KV{kv(1, 1, 0, 1, 0)}, 4, 3), func(t *testing.T, s StoreBackend) {
		s.ResetLoads()
		for i := 0; i < 10; i++ {
			s.Get(Key{1, 1, 0})
		}
		total := int64(0)
		for _, l := range s.ShardLoads() {
			total += l
		}
		if total != 10 {
			t.Fatalf("total load = %d, want 10", total)
		}
		if s.MaxShardLoad() != 10 {
			t.Fatalf("max load = %d, want 10 (all queries hit one key)", s.MaxShardLoad())
		}
		s.ResetLoads()
		if s.MaxShardLoad() != 0 {
			t.Fatal("ResetLoads did not zero counters")
		}
	})
}

func TestShardSizesSumToLen(t *testing.T) {
	check := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw)%200 + 1
		p := int(pRaw)%16 + 1
		pairs := make([]KV, n)
		for i := range pairs {
			pairs[i] = kv(1, int64(i), 0, int64(i), 0)
		}
		s := NewStore(pairs, p, seed)
		sum := 0
		for _, sz := range s.ShardSizes() {
			sum += sz
		}
		return sum == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardBalance(t *testing.T) {
	// 100k distinct keys over 16 shards should be within a few percent of
	// uniform; a gross imbalance indicates a broken hash.
	const n, p = 100000, 16
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(2, int64(i), int64(i*3), 0, 0)
	}
	forEachBackend(t, NewStore(pairs, p, 12345), func(t *testing.T, s StoreBackend) {
		want := n / p
		for i, sz := range s.ShardSizes() {
			if sz < want*8/10 || sz > want*12/10 {
				t.Fatalf("shard %d holds %d pairs, want within 20%% of %d", i, sz, want)
			}
		}
	})
}

func TestSaltChangesPlacement(t *testing.T) {
	const n, p = 1000, 8
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), 0, 0, 0)
	}
	a := NewStore(pairs, p, 1).ShardSizes()
	b := NewStore(pairs, p, 2).ShardSizes()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different salts produced identical shard size vectors")
	}
}

func TestConcurrentReads(t *testing.T) {
	const n = 1000
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), 0, int64(i*2), 0)
	}
	forEachBackend(t, NewStore(pairs, 8, 77), func(t *testing.T, s StoreBackend) {
		s.ResetLoads()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					v, ok := s.Get(Key{1, int64(i), 0})
					if !ok || v.A != int64(i*2) {
						t.Errorf("goroutine %d: bad read for %d", g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		total := int64(0)
		for _, l := range s.ShardLoads() {
			total += l
		}
		if total != 8*n {
			t.Fatalf("total load = %d, want %d", total, 8*n)
		}
	})
}

func TestBuilderMergeOrder(t *testing.T) {
	b := NewBuilder(8)
	b.Prime(4, 5)
	w2 := b.Writer(2)
	w0 := b.Writer(0)
	k := Key{1, 9, 0}
	w2.Write(k, Value{200, 0})
	w0.Write(k, Value{100, 0})
	// Machine 0's write must come first regardless of Writer creation
	// order, and the serialized store must preserve the assignment.
	forEachBackend(t, b.Freeze(4, 5), func(t *testing.T, s StoreBackend) {
		if vs := s.GetRange(k, 0, 2, nil); len(vs) != 2 || vs[0].A != 100 || vs[1].A != 200 {
			t.Fatalf("merge order wrong: got %v", vs)
		}
	})
}

func TestBuilderConcurrentWriters(t *testing.T) {
	b := NewBuilder(8)
	b.Prime(4, 5)
	const machines, per = 8, 100
	var wg sync.WaitGroup
	for m := 0; m < machines; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			w := b.Writer(m)
			for i := 0; i < per; i++ {
				w.Write(Key{1, int64(m), int64(i)}, Value{int64(i), 0})
			}
		}(m)
	}
	wg.Wait()
	if got := len(pairsOf(b)); got != machines*per {
		t.Fatalf("pairs = %d, want %d", got, machines*per)
	}
}

func TestWriterLen(t *testing.T) {
	b := NewBuilder(8)
	b.Prime(4, 5)
	w := b.Writer(0)
	if w.Len() != 0 {
		t.Fatal("fresh writer non-empty")
	}
	w.Write(Key{1, 1, 1}, Value{})
	if w.Len() != 1 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{1, 2, 3}).String(); got != "(1,2,3)" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 1 << 16
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), 0, int64(i), 0)
	}
	s := NewStore(pairs, 16, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(Key{1, int64(i & (n - 1)), 0})
	}
}

// BenchmarkDupKeyRead reads duplicated keys the way a machine walks a
// key's values: Count, then GetRange over all of them. Each of the 2^14
// keys holds four values, so every read goes through the key's entry for
// its count and slab offset: the one read path with a second load.
func BenchmarkDupKeyRead(b *testing.B) {
	const keys, dup = 1 << 14, 4
	pairs := make([]KV, 0, keys*dup)
	for x := 0; x < dup; x++ {
		for i := 0; i < keys; i++ {
			pairs = append(pairs, kv(1, int64(i), 0, int64(i), int64(x)))
		}
	}
	s := NewStore(pairs, 16, 9)
	dst := make([]Value, 0, dup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{1, int64(uint32(i*2654435761) & (keys - 1)), 0}
		dst = s.GetRange(k, 0, s.Count(k), dst[:0])
	}
}

// BenchmarkSegmentGet is BenchmarkGet against a store decoded from a
// compressed segment as the publisher writes it.
func BenchmarkSegmentGet(b *testing.B) {
	const n = 1 << 16
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), 0, int64(i), 0)
	}
	path := b.TempDir() + "/store.seg"
	if _, err := WriteSegment(NewStore(pairs, 16, 9), path, nil); err != nil {
		b.Fatal(err)
	}
	fs, err := OpenSegment(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Get(Key{1, int64(i & (n - 1)), 0})
	}
}
