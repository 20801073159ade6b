package dds

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// reverseRun is a Parallel that executes tasks in reverse order on the
// calling goroutine — a legal schedule that shakes out any accidental
// dependence on task order.
func reverseRun(n int, f func(i int)) {
	for i := n - 1; i >= 0; i-- {
		f(i)
	}
}

// stripedRun is a Parallel mimicking the runtime's pinned scheduler: a
// fixed worker count, worker w owning indices w, w+W, w+2W, ...
func stripedRun(n int, f func(i int)) {
	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// fillPrimed primes b for (p, salt) and replays the writes of machines
// 0..machines-1 in a deterministic interleaving with heavy duplicate keys.
func fillPrimed(r *rand.Rand, b *Builder, machines, perMachine, p int, salt uint64, dup int) {
	b.Prime(p, salt)
	keySpace := machines*perMachine/dup + 1
	for m := 0; m < machines; m++ {
		w := b.Writer(m)
		for i := 0; i < perMachine; i++ {
			k := Key{Tag: uint8(r.Intn(3) + 1), A: int64(r.Intn(keySpace)), B: int64(r.Intn(3))}
			w.Write(k, Value{A: int64(m), B: int64(i)})
		}
	}
}

// TestPrimedFreezeByteIdentical is the freeze's property test: the in-place
// freeze must produce a store whose serialized segment bytes are identical
// to the counting-build oracle over the same writes, across every execution
// shape — one to eight insert tasks, nil, reversed and pinned-striped
// schedulers, fresh and dirty arenas — for shard counts from 1 to 512 and
// duplicate-heavy key distributions. One builder is frozen in every shape,
// so the reused duplicate stashes are exercised too.
func TestPrimedFreezeByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(507))
	for _, p := range []int{1, 3, 16, 64, 512} {
		for _, dup := range []int{1, 4, 100} {
			machines := []int{1, 4, 64}[r.Intn(3)]
			perMachine := r.Intn(300) + 10
			salt := r.Uint64()
			seed := r.Int63()
			b := NewBuilder(machines)
			fillPrimed(rand.New(rand.NewSource(seed)), b, machines, perMachine, p, salt, dup)
			pairs := pairsOf(b)
			want := string(AppendSegment(nil, oracleStore(pairs, p, salt)))
			ws := b.allWriters()
			for _, workers := range []int{1, 2, 3, 8} {
				for ri, run := range []Parallel{nil, reverseRun, stripedRun} {
					for _, dirty := range []bool{false, true} {
						a := NewArena()
						if dirty {
							// Dirty the arena with a retired store of the same
							// shape so recycled tables and slabs are stale.
							junk := NewBuilder(machines)
							fillPrimed(rand.New(rand.NewSource(seed^0x5a)), junk, machines, perMachine, p, salt^1, dup)
							a.Recycle(junk.Freeze(p, salt^1))
						}
						b.SetParallel(run)
						got := b.freeze(a, ws, len(pairs), workers)
						if gotBytes := string(AppendSegment(nil, got)); gotBytes != want {
							t.Fatalf("p=%d dup=%d machines=%d workers=%d run=%d dirty=%v: freeze bytes differ from the oracle",
								p, dup, machines, workers, ri, dirty)
						}
					}
				}
			}
		}
	}
}

// TestPrimedFreezeThroughFreezeArena covers the public entry point: a
// builder frozen via FreezeArena (the runtime's call) equals the oracle, and
// a geometry mismatch panics instead of mis-sharding.
func TestPrimedFreezeThroughFreezeArena(t *testing.T) {
	const machines, perMachine, p, salt = 8, 200, 16, uint64(77)
	b := NewBuilder(machines)
	fillPrimed(rand.New(rand.NewSource(3)), b, machines, perMachine, p, salt, 5)
	want := string(AppendSegment(nil, oracleStore(pairsOf(b), p, salt)))
	if got := string(AppendSegment(nil, b.FreezeArena(nil, p, salt))); got != want {
		t.Fatal("FreezeArena bytes differ from the oracle")
	}

	b2 := NewBuilder(machines)
	fillPrimed(rand.New(rand.NewSource(3)), b2, machines, perMachine, p, salt, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Freeze with a salt the writers were not primed for did not panic")
		}
	}()
	b2.Freeze(p, salt^1)
}

// TestPrimedRefetchDiscards pins the fault-model contract on the
// pre-hashed path: re-fetching a machine's Writer must discard the machine's
// partial pre-hashed entries, narrow and wide, leaving the freeze
// byte-identical to a run in which the discarded writes never happened.
func TestPrimedRefetchDiscards(t *testing.T) {
	const machines, p, salt = 4, 8, uint64(5)

	build := func(withGhost bool) string {
		b := NewBuilder(machines)
		b.Prime(p, salt)
		for m := 0; m < machines; m++ {
			w := b.Writer(m)
			w.Write(Key{Tag: 1, A: int64(m)}, Value{A: int64(m)})
		}
		if withGhost {
			w := b.Writer(2)
			w.Write(Key{Tag: 9, A: 99}, Value{A: 99})
			w.Write(Key{Tag: 9, A: 1 << 40}, Value{B: -1 << 40})
		}
		w := b.Writer(2) // refetch discards machine 2's earlier writes
		w.Write(Key{Tag: 1, A: 2}, Value{A: 2})
		return string(AppendSegment(nil, b.Freeze(p, salt)))
	}
	if build(true) != build(false) {
		t.Fatal("a re-fetched writer left partial writes visible")
	}
}

// TestStaleEpochFreezePanics pins that a writer written before a re-Prime
// and never re-fetched fails the freeze loudly instead of mis-sharding.
func TestStaleEpochFreezePanics(t *testing.T) {
	b := NewBuilder(1)
	b.Prime(4, 1)
	b.Writer(0).Write(Key{Tag: 1, A: 1}, Value{A: 1})
	b.Prime(8, 42) // the writer is not re-fetched
	defer func() {
		if recover() == nil {
			t.Fatal("freezing a stale-epoch writer did not panic")
		}
	}()
	b.Freeze(8, 42)
}

// TestWriterPastCountPanics pins that a builder has exactly the writers it
// was made with: a machine id past them fails loudly.
func TestWriterPastCountPanics(t *testing.T) {
	b := NewBuilder(2)
	b.Prime(4, 1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Writer(2) on a builder of 2 writers") {
			t.Fatalf("Writer past the pre-sized count: panic %v", r)
		}
	}()
	b.Writer(2)
}

// TestUnprimedBuilderPanics pins that a builder has no write mode before
// Prime: fetching a writer, or freezing, must fail loudly.
func TestUnprimedBuilderPanics(t *testing.T) {
	for name, f := range map[string]func(b *Builder){
		"Writer": func(b *Builder) { b.Writer(0) },
		"Freeze": func(b *Builder) { b.Freeze(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an unprimed builder did not panic", name)
				}
			}()
			f(NewBuilder(1))
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Prime past 2^30 shards did not panic")
		}
	}()
	NewBuilder(1).Prime(1<<30+1, 0)
}

// TestWriterWriteManyMatchesWriteLoop pins Writer-level batch semantics:
// WriteMany(kvs) must leave the writer in exactly the state of a Write loop,
// so the frozen bytes agree.
func TestWriterWriteManyMatchesWriteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	kvs := make([]KV, 500)
	for i := range kvs {
		kvs[i] = KV{Key{Tag: 1, A: int64(r.Intn(60))}, Value{A: int64(i)}}
	}
	const p, salt = 7, uint64(123)
	loop := NewBuilder(2)
	batch := NewBuilder(2)
	loop.Prime(p, salt)
	batch.Prime(p, salt)
	lw, bw := loop.Writer(0), batch.Writer(0)
	for _, kv := range kvs {
		lw.Write(kv.Key, kv.Value)
	}
	bw.WriteMany(kvs[:200])
	bw.WriteMany(kvs[200:])
	if lw.Len() != bw.Len() {
		t.Fatalf("Len %d vs %d", lw.Len(), bw.Len())
	}
	a := string(AppendSegment(nil, loop.Freeze(p, salt)))
	b := string(AppendSegment(nil, batch.Freeze(p, salt)))
	if a != b {
		t.Fatal("WriteMany store differs from Write loop")
	}
}

// TestWriterGrow pins the reservation contract: a writer reserved for n
// pairs takes exactly n — by Write and by WriteMany — without allocating,
// and a reservation never changes the frozen bytes.
func TestWriterGrow(t *testing.T) {
	const n = 1000
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key{Tag: 2, A: int64(i % 70), B: int64(i)}, Value{A: int64(i)}}
	}
	const p, salt = 9, uint64(55)
	plain, grown := NewBuilder(1), NewBuilder(1)
	plain.Prime(p, salt)
	grown.Prime(p, salt)
	pw := plain.Writer(0)
	for _, kv := range kvs {
		pw.Write(kv.Key, kv.Value)
	}
	gw := grown.Writer(0)
	gw.Grow(n)
	if allocs := testing.AllocsPerRun(10, func() {
		gw.clear()
		for _, kv := range kvs[:n/2] {
			gw.Write(kv.Key, kv.Value)
		}
		gw.WriteMany(kvs[n/2:])
	}); allocs != 0 {
		t.Fatalf("filling a reserved writer allocates %.0f times", allocs)
	}
	if gw.Len() != n {
		t.Fatalf("reserved writer holds %d pairs, want %d", gw.Len(), n)
	}
	a := string(AppendSegment(nil, plain.Freeze(p, salt)))
	b := string(AppendSegment(nil, grown.Freeze(p, salt)))
	if a != b {
		t.Fatal("Grow changed the frozen store")
	}
}

// TestSteadyFreezeAllocatesNoDupTable pins that a steady-state freeze with
// duplicated keys allocates no side table for them: each key's entry takes
// an unclaimed slot of its recycled table, so the freeze allocates less
// than the 16 bytes per duplicated key a separate table would take, and
// the store still answers like the reference.
func TestSteadyFreezeAllocatesNoDupTable(t *testing.T) {
	const pairs, machines, p, salt = 1 << 14, 8, 16, uint64(0xD0B)
	kvs := randomPairs(rand.New(rand.NewSource(12)), pairs, 4)
	bld := NewBuilder(machines)
	bld.Prime(p, salt)
	for m := 0; m < machines; m++ {
		bld.Writer(m).WriteMany(kvs[m*pairs/machines : (m+1)*pairs/machines])
	}
	a := NewArena()
	a.Recycle(bld.FreezeArena(a, p, salt))
	a.Recycle(bld.FreezeArena(a, p, salt))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := bld.FreezeArena(a, p, salt)
	runtime.ReadMemStats(&after)
	dups := 0
	for i := range s.shards {
		dups += s.shards[i].dups
	}
	if dups == 0 {
		t.Fatal("no duplicated keys to place")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("steady-state freeze of %d duplicated keys allocates %d bytes", dups, got)
	if got >= uint64(16*dups) {
		t.Fatalf("steady-state freeze of %d duplicated keys allocates %d bytes", dups, got)
	}
	checkAgainstReference(t, s, reference(kvs), nil)
}

// TestFirstFreezeStashAllocatesItsSize pins the duplicate stash's growth: a
// fresh builder's first freeze of D duplicate-key values allocates, beyond
// the table and slab bytes it reports, at most 40 bytes per value — the
// 24-byte stashed value, its last chunk's slack and the shards' lists of
// duplicated keys. A stash grown by append from nil allocates about five
// times its final size, ≈ 120 bytes per value.
func TestFirstFreezeStashAllocatesItsSize(t *testing.T) {
	const machines, p, salt = 8, 16, uint64(0xF1257)
	const single, keys, copies = 1 << 16, 1 << 14, 9
	kvs := make([]KV, 0, single+keys*copies)
	for i := 0; i < single; i++ {
		kvs = append(kvs, KV{Key{Tag: 1, A: int64(i)}, Value{A: int64(i)}})
	}
	for c := 0; c < copies; c++ {
		for i := 0; i < keys; i++ {
			kvs = append(kvs, KV{Key{Tag: 2, A: int64(i)}, Value{A: int64(c), B: int64(i)}})
		}
	}
	bld := NewBuilder(machines)
	bld.Prime(p, salt)
	for m := 0; m < machines; m++ {
		bld.Writer(m).WriteMany(kvs[m*len(kvs)/machines : (m+1)*len(kvs)/machines])
	}
	ws := bld.allWriters()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := bld.freeze(nil, ws, len(kvs), 2)
	runtime.ReadMemStats(&after)
	fz := bld.LastFreeze()
	extra := int64(after.TotalAlloc-before.TotalAlloc) - fz.FreshTableBytes - fz.FreshSlabBytes
	per := float64(extra) / float64(keys*(copies-1))
	t.Logf("first freeze of %d duplicate values: %d bytes beyond tables and slabs, %.1f B per value",
		keys*(copies-1), extra, per)
	if per > 40 {
		t.Fatalf("first freeze allocates %.1f B per duplicate value beyond tables and slabs, want at most 40", per)
	}
	checkAgainstReference(t, s, reference(kvs), nil)
}

// BenchmarkFreeze measures the steady-state freeze: 2^20 pairs from 64
// machines into 512 shards, the arena recycling each generation into the
// next as the runtime's does. dup is randomPairs' duplicate factor: at 4
// about one pair in seven is a duplicate-key value, at 1 about one in
// twenty-five.
func BenchmarkFreeze(b *testing.B) {
	const pairs, machines, p, salt = 1 << 20, 64, 512, uint64(0xF5)
	for _, dup := range []int{1, 4} {
		b.Run(fmt.Sprintf("dup=%d", dup), func(b *testing.B) {
			kvs := randomPairs(rand.New(rand.NewSource(9)), pairs, dup)
			bld := NewBuilder(machines)
			bld.Prime(p, salt)
			for m := 0; m < machines; m++ {
				bld.Writer(m).WriteMany(kvs[m*pairs/machines : (m+1)*pairs/machines])
			}
			a := NewArena()
			a.Recycle(bld.FreezeArena(a, p, salt))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Recycle(bld.FreezeArena(a, p, salt))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
	// fresh-dup=4 times a first freeze: a new builder and an empty arena
	// every iteration, so its B/op is the tables, slabs and stash a run's
	// first freeze allocates. Filling the writers is not timed.
	b.Run("fresh-dup=4", func(b *testing.B) {
		kvs := randomPairs(rand.New(rand.NewSource(9)), pairs, 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bld := NewBuilder(machines)
			bld.Prime(p, salt)
			for m := 0; m < machines; m++ {
				bld.Writer(m).WriteMany(kvs[m*pairs/machines : (m+1)*pairs/machines])
			}
			b.StartTimer()
			bld.FreezeArena(nil, p, salt)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
	})
}

// BenchmarkFreezeEmitted times a steady-state freeze of 2^20 pairs into 512
// shards with the pairs' producer in the timed loop: emitted, the emitted
// freeze replaying a list; buffered, 64 machines' WriteMany of the same
// list into their writers and the buffered freeze. Both recycle each
// generation through the arena, as the runtime does; B/op of buffered
// includes no writer growth once the writers are warm.
func BenchmarkFreezeEmitted(b *testing.B) {
	const pairs, machines, p, salt = 1 << 20, 64, 512, uint64(0xF5)
	kvs := randomPairs(rand.New(rand.NewSource(9)), pairs, 4)
	b.Run("emitted", func(b *testing.B) {
		bld := NewBuilder(0)
		a := NewArena()
		emit := EmitList(kvs)
		a.Recycle(bld.FreezeEmitted(a, nil, p, salt, pairs, emit))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Recycle(bld.FreezeEmitted(a, nil, p, salt, pairs, emit))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
	})
	b.Run("buffered", func(b *testing.B) {
		bld := NewBuilder(machines)
		a := NewArena()
		round := func() *Store {
			bld.Prime(p, salt)
			for m := 0; m < machines; m++ {
				bld.Writer(m).WriteMany(kvs[m*pairs/machines : (m+1)*pairs/machines])
			}
			return bld.FreezeArena(a, p, salt)
		}
		a.Recycle(round())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Recycle(round())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
	})
}
