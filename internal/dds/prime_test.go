package dds

import (
	"math/rand"
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

// fillPrimed primes b for (p, salt) — p == 0 leaves it unprimed, the
// counting-build reference — and replays the writes of machines
// 0..machines-1 in a deterministic interleaving with heavy duplicate keys.
func fillPrimed(r *rand.Rand, b *Builder, machines, perMachine, p int, salt uint64, dup int) {
	if p > 0 {
		b.Prime(p, salt)
	}
	keySpace := machines*perMachine/dup + 1
	for m := 0; m < machines; m++ {
		w := b.Writer(m)
		for i := 0; i < perMachine; i++ {
			k := Key{Tag: uint8(r.Intn(3) + 1), A: int64(r.Intn(keySpace)), B: int64(r.Intn(3))}
			w.Write(k, Value{A: int64(m), B: int64(i)})
		}
	}
}

// TestPrimedFreezeByteIdentical is the tentpole's property test: the
// pre-hashed freeze must produce a store whose serialized segment bytes are
// identical to the reference counting build of the same writes, across
// every execution shape — fused (workers=1) and parallel (workers=8)
// paths, nil and pinned/reversed schedulers, fresh and recycled arenas,
// and duplicate-heavy key distributions.
func TestPrimedFreezeByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(507))
	for trial := 0; trial < 8; trial++ {
		machines := []int{1, 4, 64}[trial%3]
		perMachine := r.Intn(300) + 10
		p := []int{1, 3, 16, 64}[trial%4]
		dup := []int{1, 4, 100}[trial%3]
		salt := r.Uint64()
		seed := r.Int63()

		// Reference: the same write sequence through an unprimed builder's
		// counting build.
		ref := NewBuilder(machines)
		fillPrimed(rand.New(rand.NewSource(seed)), ref, machines, perMachine, 0, 0, dup)
		refStore := ref.Freeze(p, salt)
		want := string(AppendSegment(nil, refStore))

		for _, workers := range []int{1, 8} {
			for ri, run := range []Parallel{nil, reverseRun, stripedRun} {
				for _, useArena := range []bool{false, true} {
					b := NewBuilder(machines)
					b.SetParallel(run)
					fillPrimed(rand.New(rand.NewSource(seed)), b, machines, perMachine, p, salt, dup)
					var a *Arena
					if useArena {
						// Dirty the arena with a retired store of the same
						// shape so recycled tables and slabs are stale.
						a = NewArena()
						junk := NewBuilder(machines)
						fillPrimed(rand.New(rand.NewSource(seed^0x5a)), junk, machines, perMachine, p, salt^1, dup)
						a.Recycle(junk.Freeze(p, salt^1))
					}
					ws := b.allWriters()
					total := 0
					for _, w := range ws {
						total += w.Len()
					}
					got := b.freezePrimedWorkers(a, ws, total, workers)
					if gotBytes := string(AppendSegment(nil, got)); gotBytes != want {
						t.Fatalf("trial %d workers=%d run=%d arena=%v: primed freeze bytes differ from counting build",
							trial, workers, ri, useArena)
					}
				}
			}
		}
	}
}

// TestPrimedFreezeThroughFreezeArena covers the public entry point: a
// primed builder frozen via FreezeArena (the runtime's call) equals the
// counting reference, and a geometry mismatch panics instead of
// mis-sharding.
func TestPrimedFreezeThroughFreezeArena(t *testing.T) {
	const machines, perMachine, p, salt = 8, 200, 16, uint64(77)
	ref := NewBuilder(machines)
	fillPrimed(rand.New(rand.NewSource(3)), ref, machines, perMachine, 0, 0, 5)
	want := string(AppendSegment(nil, ref.Freeze(p, salt)))

	b := NewBuilder(machines)
	fillPrimed(rand.New(rand.NewSource(3)), b, machines, perMachine, p, salt, 5)
	if got := string(AppendSegment(nil, b.FreezeArena(nil, p, salt))); got != want {
		t.Fatal("primed FreezeArena bytes differ from counting build")
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

// TestPrimedDropWriter pins the fault-model contract on the pre-hashed
// path: DropWriter (and re-fetching a machine's Writer) must discard the
// machine's partial pre-hashed entries, leaving the freeze byte-identical
// to a run in which the dropped writes never happened.
func TestPrimedDropWriter(t *testing.T) {
	const machines, p, salt = 4, 8, uint64(5)

	build := func(withGhost bool, drop bool) string {
		b := NewBuilder(machines)
		b.Prime(p, salt)
		for m := 0; m < machines; m++ {
			w := b.Writer(m)
			w.Write(Key{Tag: 1, A: int64(m)}, Value{A: int64(m)})
		}
		if withGhost {
			w := b.Writer(2) // refetch discards machine 2's earlier write
			w.Write(Key{Tag: 1, A: 2}, Value{A: 2})
			w.Write(Key{Tag: 9, A: 99}, Value{A: 99})
			if drop {
				b.DropWriter(2)
				w = b.Writer(2)
				w.Write(Key{Tag: 1, A: 2}, Value{A: 2})
			}
		}
		return string(AppendSegment(nil, b.Freeze(p, salt)))
	}

	clean := build(false, false)
	if got := build(true, true); got != clean {
		t.Fatal("DropWriter left pre-hashed partial writes visible")
	}
	if got := build(true, false); got == clean {
		t.Fatal("sanity: the ghost write should have changed the store")
	}

	// Len must agree with the bucketed state after drops.
	b := NewBuilder(machines)
	b.Prime(p, salt)
	b.Writer(0).Write(Key{Tag: 1, A: 1}, Value{})
	b.Writer(1).Write(Key{Tag: 1, A: 2}, Value{})
	b.DropWriter(0)
	if b.Len() != 1 {
		t.Fatalf("Len after drop = %d, want 1", b.Len())
	}
	if got := len(b.Pairs()); got != 1 {
		t.Fatalf("Pairs after drop = %d, want 1", got)
	}
}

// TestStaleEpochPairsAndLenAgree pins the inspection methods on the state
// Freeze rejects: a writer written before a re-Prime must still be visible
// through Pairs and Len (each writer reads through its own epoch), and the
// freeze itself must fail loudly instead of silently dropping it.
func TestStaleEpochPairsAndLenAgree(t *testing.T) {
	b := NewBuilder(1)
	b.Writer(0).Write(Key{Tag: 1, A: 1}, Value{A: 1})
	b.Prime(8, 42) // the writer is not re-fetched
	if b.Len() != 1 || len(b.Pairs()) != 1 {
		t.Fatalf("Len = %d, Pairs = %d; both must report the stale-epoch pair", b.Len(), len(b.Pairs()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("freezing a stale-epoch writer did not panic")
		}
	}()
	b.Freeze(8, 42)
}

// TestWriterWriteManyMatchesWriteLoop pins Writer-level batch semantics on
// both write paths: WriteMany(kvs) must leave the writer in exactly the
// state of a Write loop, so the frozen bytes agree.
func TestWriterWriteManyMatchesWriteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	kvs := make([]KV, 500)
	for i := range kvs {
		kvs[i] = KV{Key{Tag: 1, A: int64(r.Intn(60))}, Value{A: int64(i)}}
	}
	for _, primed := range []bool{false, true} {
		p, salt := 0, uint64(0)
		if primed {
			p, salt = 7, uint64(123)
		}
		loop := NewBuilder(2)
		batch := NewBuilder(2)
		if primed {
			loop.Prime(p, salt)
			batch.Prime(p, salt)
		}
		lw, bw := loop.Writer(0), batch.Writer(0)
		for _, kv := range kvs {
			lw.Write(kv.Key, kv.Value)
		}
		bw.WriteMany(kvs[:200])
		bw.WriteMany(kvs[200:])
		if lw.Len() != bw.Len() {
			t.Fatalf("primed=%v: Len %d vs %d", primed, lw.Len(), bw.Len())
		}
		fp, fsalt := 9, uint64(55)
		if primed {
			fp, fsalt = p, salt
		}
		a := string(AppendSegment(nil, loop.Freeze(fp, fsalt)))
		b := string(AppendSegment(nil, batch.Freeze(fp, fsalt)))
		if a != b {
			t.Fatalf("primed=%v: WriteMany store differs from Write loop", primed)
		}
	}
}

// TestWriterGrow pins the reservation contract on both write paths: a
// writer reserved for n pairs takes exactly n — by Write and by WriteMany —
// without allocating, and a reservation never changes the frozen bytes.
func TestWriterGrow(t *testing.T) {
	const n = 1000
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key{Tag: 2, A: int64(i % 70), B: int64(i)}, Value{A: int64(i)}}
	}
	for _, primed := range []bool{false, true} {
		p, salt := 9, uint64(55)
		plain, grown := NewBuilder(1), NewBuilder(1)
		if primed {
			plain.Prime(p, salt)
			grown.Prime(p, salt)
		}
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
			t.Fatalf("primed=%v: filling a reserved writer allocates %.0f times", primed, allocs)
		}
		if gw.Len() != n {
			t.Fatalf("primed=%v: reserved writer holds %d pairs, want %d", primed, gw.Len(), n)
		}
		a := string(AppendSegment(nil, plain.Freeze(p, salt)))
		b := string(AppendSegment(nil, grown.Freeze(p, salt)))
		if a != b {
			t.Fatalf("primed=%v: Grow changed the frozen store", primed)
		}
	}
}
