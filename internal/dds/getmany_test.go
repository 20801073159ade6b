package dds

import (
	"testing"
)

// batchStore is the surface the equivalence test exercises: scalar reads,
// batched reads, and the per-shard load ledger both must account identically.
type batchStore interface {
	Get(Key) (Value, bool)
	GetMany([]Key, []Value, []bool)
	ShardLoads() []int64
}

// getManyKeys builds a deliberately hostile batch over an n-pair store:
// dup-heavy runs (the same few keys repeated), a sweep of present keys, and
// interleaved absent keys on both a foreign tag and out-of-range ids.
func getManyKeys(n int) []Key {
	var keys []Key
	for i := 0; i < 64; i++ {
		keys = append(keys, Key{1, int64(i % 5), int64(i % 5 % 7)})
	}
	for i := 0; i < n; i += 3 {
		keys = append(keys, Key{1, int64(i), int64(i % 7)})
		if i%9 == 0 {
			keys = append(keys, Key{2, int64(i), 0})        // absent tag
			keys = append(keys, Key{1, int64(n + i), -1})   // absent id
			keys = append(keys, Key{1, int64(i), int64(i)}) // wrong B field
		}
	}
	return keys
}

// TestGetManyMatchesGet runs the same batch through scalar Get on one store
// instance and GetMany on a second, identically built one, for every store
// kind that implements BatchGetter natively. Values, presence bits and the
// full per-shard load ledger must come out identical — GetMany is a throughput
// optimization, never an accounting change.
func TestGetManyMatchesGet(t *testing.T) {
	const n = 1 << 12
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), int64(i%7), int64(2*i), int64(i))
	}
	factories := map[string]func(t *testing.T) batchStore{
		"mem": func(t *testing.T) batchStore { return NewStore(pairs, 16, 9) },
		"file": func(t *testing.T) batchStore {
			return roundTrip(t, NewStore(pairs, 16, 9))
		},
		"segment": func(t *testing.T) batchStore {
			path := t.TempDir() + "/store.seg"
			if _, err := WriteSegment(NewStore(pairs, 16, 9), path, nil); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenSegment(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		},
	}
	keys := getManyKeys(n)
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			scalar, batched := mk(t), mk(t)
			wantV := make([]Value, len(keys))
			wantOK := make([]bool, len(keys))
			for i, k := range keys {
				wantV[i], wantOK[i] = scalar.Get(k)
			}
			gotV := make([]Value, len(keys))
			gotOK := make([]bool, len(keys))
			gotV[0] = Value{^int64(0), ^int64(0)} // stale garbage GetMany must overwrite
			batched.GetMany(keys, gotV, gotOK)
			for i := range keys {
				if gotV[i] != wantV[i] || gotOK[i] != wantOK[i] {
					t.Fatalf("key %d %v: GetMany = (%v,%v), Get = (%v,%v)",
						i, keys[i], gotV[i], gotOK[i], wantV[i], wantOK[i])
				}
			}
			sl, bl := scalar.ShardLoads(), batched.ShardLoads()
			if len(sl) != len(bl) {
				t.Fatalf("shard count mismatch: %d vs %d", len(sl), len(bl))
			}
			for i := range sl {
				if sl[i] != bl[i] {
					t.Fatalf("shard %d load: GetMany accounted %d, Get accounted %d", i, bl[i], sl[i])
				}
			}
			// Empty and single-key batches must be safe no-ops / scalar twins.
			batched.GetMany(nil, nil, nil)
			one := []Key{keys[7]}
			v1, ok1 := make([]Value, 1), make([]bool, 1)
			batched.GetMany(one, v1, ok1)
			if v1[0] != wantV[7] || ok1[0] != wantOK[7] {
				t.Fatalf("single-key batch: got (%v,%v), want (%v,%v)", v1[0], ok1[0], wantV[7], wantOK[7])
			}
		})
	}
}

// BenchmarkStoreGetMany pins the batched read path: one 256-key batch per
// iteration against the in-memory store, the unit ReadMany and the rpc
// backend lean on.
func BenchmarkStoreGetMany(b *testing.B) {
	const n = 1 << 16
	const batch = 256
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), 0, int64(i), 0)
	}
	s := NewStore(pairs, 16, 9)
	keys := make([]Key, batch)
	vals := make([]Value, batch)
	oks := make([]bool, batch)
	for i := range keys {
		keys[i] = Key{1, int64(uint32(i*2654435761) & (n - 1)), 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetMany(keys, vals, oks)
	}
}
