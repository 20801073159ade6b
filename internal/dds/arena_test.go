package dds

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestShrinkingFreezesRecycleTables replays the store sizes of a
// connectivity run (the pairs of each round at n = 10^5, m = 4·10^5 over
// 512 shards, scaled down 64 times onto 8 shards): publish and increase
// rounds alternate and both shrink as the graph contracts, so the shards'
// tables step down through the powers of two. Each store retires before the
// next one freezes, as the runtime's D_{i-1} does, so every table the arena
// holds is at least as large as the one a later, smaller store needs: after
// the first freeze none may allocate a table. Each store must still hold
// the oracle's bytes.
func TestShrinkingFreezesRecycleTables(t *testing.T) {
	const machines, p, salt = 8, 8, uint64(0x5A1)
	sizes := []int{14062, 6247, 12006, 4387, 10667, 2793, 6944, 2163, 2367, 1441, 829, 1017, 202, 523, 55, 13}
	r := rand.New(rand.NewSource(49))
	bld := NewBuilder(machines)
	a := NewArena()
	var cur *Store
	for i, n := range sizes {
		kvs := randomPairs(r, n, 1)
		bld.Prime(p, salt)
		for m := 0; m < machines; m++ {
			bld.Writer(m).WriteMany(kvs[m*n/machines : (m+1)*n/machines])
		}
		a.Recycle(cur)
		cur = bld.FreezeArena(a, p, salt)
		st := bld.LastFreeze()
		t.Logf("freeze %d: %d pairs, fresh tables %d B, fresh slabs %d B", i, n, st.FreshTableBytes, st.FreshSlabBytes)
		if i >= 1 && st.FreshTableBytes != 0 {
			t.Fatalf("freeze %d of %d pairs allocated %d bytes of fresh tables; the arena holds larger retired ones",
				i, n, st.FreshTableBytes)
		}
		if !bytes.Equal(AppendSegment(nil, cur), AppendSegment(nil, oracleStore(kvs, p, salt))) {
			t.Fatalf("freeze %d of %d pairs differs from the oracle", i, n)
		}
	}
}

// TestGrabTakesSmallestFit pins the arena's one selection rule for tables
// and slabs: the smallest retired array with room for the request, where a
// table's room is bounded by both its slot array and its bitmap.
func TestGrabTakesSmallestFit(t *testing.T) {
	a := NewArena()
	a.Recycle(&Store{shards: []shard{
		{slab: make([]Value, 3, 100)},
		{slab: make([]Value, 10)},
		{slab: make([]Value, 40)},
		{slab: make([]Value, 7)},
		{slab: make([]Value, 12)},
		{slab: make([]Value, 9)},
		// Room 256: the bitmap covers 4·64 slots of the 1024.
		{slots: make([]slot, 1024), bits: make([]uint64, 4)},
		{slots: make([]slot, 512), bits: make([]uint64, 8)},
		{slots: make([]slot, 4096), bits: make([]uint64, 64)},
	}})
	for _, c := range []struct{ n, cap int }{{8, 9}, {10, 10}, {8, 12}, {8, 40}, {30, 100}, {5, 7}, {1, 0}} {
		sl, fresh := a.grabSlab(c.n)
		if len(sl) != c.n || (fresh != 0) != (c.cap == 0) || c.cap != 0 && cap(sl) != c.cap {
			t.Fatalf("grabSlab(%d) = len %d cap %d, %d fresh bytes; want cap %d", c.n, len(sl), cap(sl), fresh, c.cap)
		}
	}
	for _, c := range []struct{ n, cap int }{{256, 1024}, {256, 512}, {512, 4096}, {64, 0}} {
		slots, bm, fresh := a.grabTable(c.n)
		if len(slots) != c.n || len(bm) != bitWords(c.n) || (fresh != 0) != (c.cap == 0) || c.cap != 0 && cap(slots) != c.cap {
			t.Fatalf("grabTable(%d) = len %d cap %d, %d bitmap words, %d fresh bytes; want cap %d",
				c.n, len(slots), cap(slots), len(bm), fresh, c.cap)
		}
	}
}

// TestRecycleDropsUngrabbedGeneration pins the arena's one-generation
// rule: recycling a store drops whatever the previous Recycle left
// ungrabbed, and neither the dropped tables nor one a grab took stay
// reachable from the arena. The small store's tables fall in another
// class than the large ones, so a reference left in the large tables'
// class would keep them alive.
func TestRecycleDropsUngrabbedGeneration(t *testing.T) {
	const n, tables = 1 << 17, 4
	retired := func(n int) *Store {
		s := &Store{shards: make([]shard, tables)}
		for i := range s.shards {
			s.shards[i].slots, s.shards[i].bits = make([]slot, n), make([]uint64, bitWords(n))
		}
		return s
	}
	a := NewArena()
	a.Recycle(retired(n))
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	a.grabTable(n)
	a.Recycle(retired(64))
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	runtime.KeepAlive(a)
	want := int64(tables * n * recordBytes)
	if freed := int64(held.HeapAlloc) - int64(dropped.HeapAlloc); freed < want {
		t.Fatalf("Recycle freed %d bytes of the previous generation's tables, want at least %d", freed, want)
	}
}
