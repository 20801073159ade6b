package dds

import (
	"fmt"
	"slices"
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

// TestGetManyMatchesGet runs the same batches through scalar Get on one
// store instance and GetMany on a second, identically built one, for every
// in-process store kind and for one, 16 and 512
// shards. The batches: the hostile mix, sizes around gmScalarCutoff, keys
// that all land on one shard, and keys that are all absent. Values,
// presence bits and the full per-shard load ledger must come out identical
// after every batch — GetMany is a throughput optimization, never an
// accounting change.
func TestGetManyMatchesGet(t *testing.T) {
	const n, salt = 1 << 12, 9
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = kv(1, int64(i), int64(i%7), int64(2*i), int64(i))
	}
	keys := getManyKeys(n)
	factories := map[string]func(t *testing.T, p int) batchStore{
		"mem": func(t *testing.T, p int) batchStore { return NewStore(pairs, p, salt) },
		"file": func(t *testing.T, p int) batchStore {
			return roundTrip(t, NewStore(pairs, p, salt))
		},
		"segment": func(t *testing.T, p int) batchStore {
			path := t.TempDir() + "/store.seg"
			if _, err := WriteSegment(NewStore(pairs, p, salt), path, nil); err != nil {
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
	absent := make([]Key, 100)
	for i := range absent {
		absent[i] = Key{1, int64(n + i), 0}
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{1, 16, 512} {
				var oneShard []Key
				for i := 0; i < n && len(oneShard) < 3*gmScalarCutoff; i++ {
					if k := (Key{1, int64(i), int64(i % 7)}); HashOf(k, salt)%uint64(p) == 0 {
						oneShard = append(oneShard, k)
					}
				}
				batches := []struct {
					what string
					keys []Key
				}{
					{"hostile", keys},
					{"below cutoff", keys[:gmScalarCutoff-1]},
					{"at cutoff", keys[:gmScalarCutoff]},
					{"above cutoff", keys[:gmScalarCutoff+1]},
					{"one shard", oneShard},
					{"absent", absent},
					{"single", keys[7:8]},
					{"empty", nil},
				}
				scalar, batched := mk(t, p), mk(t, p)
				for _, b := range batches {
					checkGetMany(t, fmt.Sprintf("P=%d %s", p, b.what), scalar, batched, b.keys)
				}
			}
		})
	}
}

// checkGetMany reads batch through scalar Get on one store and GetMany on
// its twin, and requires equal results and equal per-shard load ledgers.
func checkGetMany(t *testing.T, what string, scalar, batched batchStore, batch []Key) {
	t.Helper()
	wantV := make([]Value, len(batch))
	wantOK := make([]bool, len(batch))
	for i, k := range batch {
		wantV[i], wantOK[i] = scalar.Get(k)
	}
	gotV := make([]Value, len(batch))
	gotOK := make([]bool, len(batch))
	for i := range gotV {
		gotV[i] = Value{^int64(0), ^int64(0)} // stale garbage GetMany must overwrite
	}
	batched.GetMany(batch, gotV, gotOK)
	for i := range batch {
		if gotV[i] != wantV[i] || gotOK[i] != wantOK[i] {
			t.Fatalf("%s: key %d %v: GetMany = (%v,%v), Get = (%v,%v)",
				what, i, batch[i], gotV[i], gotOK[i], wantV[i], wantOK[i])
		}
	}
	sl, bl := scalar.ShardLoads(), batched.ShardLoads()
	if !slices.Equal(sl, bl) {
		t.Fatalf("%s: per-shard loads: GetMany accounted %v, Get accounted %v", what, bl, sl)
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
