package dds

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Builder accumulates the key-value pairs written during a round and freezes
// them into the next round's Store. Each machine writes through its own
// Writer so the hot path is lock-free; Freeze merges the per-machine buffers
// in machine-id order, which makes duplicate-key index assignment
// deterministic for a fixed schedule of writes.
//
// Writers are pre-sized at NewBuilder time: the runtime knows the machine
// count up front, so Writer(m) for m < p is a plain indexed lookup with no
// lock and no allocation, and a builder can be Reset and reused across
// rounds, keeping each machine's buffer capacity warm.
//
// A builder has two write-side modes. Unprimed (the default), writers buffer
// plain pairs and Freeze partitions them with the counting build: hash every
// pair to count per-shard sizes, prefix-sum, hash every pair again to
// scatter. Primed with the next store's geometry — Prime(p, salt), which the
// AMPC runtime calls every round because it draws the salt before the round
// executes — writers pre-hash: each Write hashes its key once, resolves the
// destination shard, and appends {key, hash|shard, value} to the writer's
// buffer. Freeze then never hashes at all: the counting pass collapses to
// reading stored shard ids, the scatter routes by them, and slot insertion
// reuses the stored hash bits. Both modes produce byte-identical stores; the
// primed path just moves the hashing to write time, where it runs inside the
// machines' parallel execute phase.
//
// (An earlier design kept a physical per-shard bucket per writer, making the
// freeze a pure sized merge with no counting read. It measured slower: every
// Write then scattered a 48-byte append across p bucket tails — two
// dependent cache misses on the hottest path in the system — where the flat
// buffer is a single streaming append. Reading stored shard ids is cheap;
// write-time cache misses are not.)
type Builder struct {
	writers []*Writer

	// mu guards extras, the overflow path for machine ids at or beyond the
	// pre-sized count (only exercised by callers that under-declared p).
	mu     sync.Mutex
	extras map[int]*Writer

	// Primed epoch: the shard count and salt writers pre-hash for. p == 0
	// means unprimed (plain pair buffering). Writers copy the epoch when
	// fetched; div caches the shard-count reduction so a fetch never
	// recomputes it.
	p    int
	salt uint64
	div  divisor

	// run, when set, schedules Freeze's parallel phases; the AMPC runtime
	// passes its pinned worker-pool scheduler here.
	run Parallel

	// stats records the last Freeze's merge/build wall-clock split.
	stats FreezeStats

	// Scratch reused across sequential fused freezes: per-shard pair counts
	// and the stashed duplicate-key values awaiting slab placement.
	counts []int64
	dups   []dupValue
}

// dupValue is one duplicate-key value met during a fused freeze: the slot
// it belongs to and the value, stashed in arrival order until the slab
// offsets are known.
type dupValue struct {
	si   int32 // shard index
	slot int32 // slot index within the shard
	v    Value
}

// NewBuilder returns a builder pre-sized for p machines. Writer(m) for
// m in [0, p) never locks or allocates.
func NewBuilder(p int) *Builder {
	if p < 0 {
		p = 0
	}
	backing := make([]Writer, p)
	ws := make([]*Writer, p)
	for i := range ws {
		ws[i] = &backing[i]
	}
	return &Builder{writers: ws}
}

// SetParallel installs the scheduler Freeze uses for its parallel phases.
// nil (the default) stripes work dynamically over transient goroutines; the
// AMPC runtime passes a scheduler with stable shard-to-worker ownership.
// The schedule never affects the frozen store.
func (b *Builder) SetParallel(run Parallel) { b.run = run }

// Prime arms the pre-hashed write path for a store sharded p ways with the
// given placement salt: every subsequent Write hashes its key once, up
// front, and records the destination shard with the pair. Freeze must then
// be called with exactly this (p, salt) — the pre-computed routing is only
// valid for it.
//
// Priming is O(1): each writer adopts the new epoch (and discards anything
// it buffered under an old one) when it is next fetched with Writer(m) —
// which the AMPC runtime does for every machine every round — so the
// per-round floor does not grow with P. A writer written under a previous
// epoch and never re-fetched fails the freeze loudly rather than
// mis-sharding.
func (b *Builder) Prime(p int, salt uint64) {
	if p <= 0 {
		p = 1
	}
	if p > 1<<30 {
		// A shard id must fit the routing word's low 32 bits; nothing real
		// approaches this, but a silly p degrades to the counting build
		// rather than corrupting routing.
		p = 0
	}
	if p != b.p {
		b.div = newDivisor(uint64(p))
	}
	b.p, b.salt = p, salt
}

// FreezeTimes returns the wall-clock merge/build split of the most recent
// Freeze. Zero after an empty freeze.
func (b *Builder) FreezeTimes() FreezeStats { return b.stats }

// Writer returns an empty buffer for the given machine id. Writers for
// distinct machines may be used concurrently; a single Writer is not
// concurrency-safe. Requesting a machine's writer discards anything it
// previously buffered (a restarted machine starts from scratch) — in primed
// mode that includes the pre-hashed entries, so a failure-injected
// machine's partial writes are invisible exactly like plain ones.
func (b *Builder) Writer(machine int) *Writer {
	if machine < 0 {
		panic("dds: negative machine id")
	}
	if machine < len(b.writers) {
		w := b.writers[machine]
		w.clear()
		w.adopt(b)
		return w
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.extras == nil {
		b.extras = make(map[int]*Writer)
	}
	w := b.extras[machine]
	if w == nil {
		w = &Writer{}
		b.extras[machine] = w
	}
	w.clear()
	w.adopt(b)
	return w
}

// DropWriter discards any buffered writes from the given machine — plain
// pairs and pre-hashed entries alike. The AMPC runtime uses this to model
// machine failure: a machine that dies mid-round restarts from scratch and
// its partial writes must not be visible.
func (b *Builder) DropWriter(machine int) {
	if machine >= 0 && machine < len(b.writers) {
		b.writers[machine].clear()
		return
	}
	b.mu.Lock()
	if w := b.extras[machine]; w != nil {
		w.clear()
	}
	b.mu.Unlock()
}

// Reset empties every writer, keeping buffer capacities, so the builder can
// be reused for the next round. The primed epoch, if any, is retained.
func (b *Builder) Reset() {
	for _, w := range b.writers {
		w.clear()
	}
	b.mu.Lock()
	for _, w := range b.extras {
		w.clear()
	}
	b.mu.Unlock()
}

// allWriters returns every writer holding at least one pair, in machine-id
// order (pre-sized writers first, then any overflow machines sorted by id;
// overflow ids are always >= the pre-sized count).
func (b *Builder) allWriters() []*Writer {
	ws := make([]*Writer, 0, len(b.writers)+len(b.extras))
	for _, w := range b.writers {
		if w.Len() > 0 {
			ws = append(ws, w)
		}
	}
	b.mu.Lock()
	if len(b.extras) > 0 {
		ids := make([]int, 0, len(b.extras))
		for id := range b.extras {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if w := b.extras[id]; w.Len() > 0 {
				ws = append(ws, w)
			}
		}
	}
	b.mu.Unlock()
	return ws
}

// buffers returns the per-machine plain-pair buffers in machine-id order.
// Only meaningful for an unprimed builder.
func (b *Builder) buffers() [][]KV {
	ws := b.allWriters()
	bufs := make([][]KV, 0, len(ws))
	for _, w := range ws {
		if w.p != 0 {
			panic("dds: writer holds entries from a stale Prime epoch; fetch writers after Prime")
		}
		bufs = append(bufs, w.buf)
	}
	return bufs
}

// Pairs returns all buffered pairs merged in machine-id order. Each writer
// is read through its own epoch — like Len — so pairs buffered before a
// re-Prime are still reported rather than silently dropped (Freeze rejects
// that state loudly; Pairs and Len must agree with each other regardless).
func (b *Builder) Pairs() []KV {
	ws := b.allWriters()
	total := 0
	for _, w := range ws {
		total += w.Len()
	}
	out := make([]KV, 0, total)
	for _, w := range ws {
		if w.p == 0 {
			out = append(out, w.buf...)
			continue
		}
		for i := range w.ents {
			out = append(out, w.ents[i].kv)
		}
	}
	return out
}

// Len returns the total number of buffered pairs.
func (b *Builder) Len() int {
	n := 0
	for _, w := range b.allWriters() {
		n += w.Len()
	}
	return n
}

// Freeze merges all buffered writes into an immutable Store sharded p ways
// with the given salt. The partition and per-shard index builds run in
// parallel for large rounds; the resulting store — including duplicate-key
// index order — is identical to a sequential machine-id-order merge
// regardless of parallelism. The builder's buffers are copied, so the
// builder may be Reset and reused immediately.
func (b *Builder) Freeze(p int, salt uint64) *Store {
	return b.FreezeArena(nil, p, salt)
}

// FreezeArena is Freeze drawing the new store's slot arrays, slabs and
// partition scratch from the arena's recycled generation instead of the
// allocator. The produced store is identical; only the provenance of its
// memory changes. A primed builder must be frozen with its primed geometry:
// the write-time hashes and shard ids are a function of (p, salt), and
// freezing past them would silently mis-shard, so a mismatch panics.
func (b *Builder) FreezeArena(a *Arena, p int, salt uint64) *Store {
	if b.p != 0 {
		if (p != b.p && !(p <= 0 && b.p == 1)) || salt != b.salt {
			panic(fmt.Sprintf("dds: Freeze(p=%d, salt=%#x) on a builder primed for (p=%d, salt=%#x)",
				p, salt, b.p, b.salt))
		}
		return b.freezePrimed(a)
	}
	bufs := b.buffers()
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	b.stats = FreezeStats{}
	return buildStore(bufs, p, salt, buildWorkers(total), a, b.run, &b.stats)
}

// freezePrimed is the hash-free freeze over pre-hashed writer entries:
// every routing decision reads the shard id stored at write time and slot
// insertion reuses the stored hash bits, so no key is hashed and no modulo
// is taken. Sequential freezes (small rounds, single-core hosts) take the
// fused path; larger ones on multicore hosts run the three-pass parallel
// pipeline. Both are byte-identical to the counting build of the same
// writes — the property test suite compares all three as serialized bytes.
func (b *Builder) freezePrimed(a *Arena) *Store {
	ws := b.allWriters()
	total := 0
	for _, w := range ws {
		if w.p != uint64(b.p) || w.salt != b.salt {
			// Prime is O(1) — writers adopt the epoch at fetch — so a
			// writer written before the latest Prime carries routing for a
			// different store and must not merge silently.
			panic("dds: writer holds entries from a stale Prime epoch; fetch writers after Prime")
		}
		total += len(w.ents)
	}
	b.stats = FreezeStats{}
	if total == 0 {
		return &Store{shards: make([]shard, b.p), salt: b.salt, pairs: 0, div: newDivisor(uint64(b.p))}
	}
	return b.freezePrimedWorkers(a, ws, total, buildWorkers(total))
}

// freezePrimedWorkers dispatches on the worker count; split out so the
// property tests can force either path regardless of host shape.
func (b *Builder) freezePrimedWorkers(a *Arena, ws []*Writer, total, workers int) *Store {
	if workers <= 1 {
		return b.freezePrimedFused(a, ws, total)
	}
	return b.freezePrimedParallel(a, ws, total, workers)
}

// freezePrimedFused is the sequential fused freeze. With writes already
// routed, a single pass over the writers' entries — in machine-id order,
// which is exactly the merge order — inserts every pair straight into its
// shard's slot table: a claimed slot takes its key and first value
// immediately, and only duplicate-key values are stashed for slab placement
// once the overflow offsets are known. There is no scatter, no pair
// scratch, no hash scratch, and shards without duplicates skip the
// overflow scan entirely.
func (b *Builder) freezePrimedFused(a *Arena, ws []*Writer, total int) *Store {
	p := b.p
	s := &Store{shards: make([]shard, p), salt: b.salt, pairs: total, div: newDivisor(uint64(p))}
	t0 := time.Now()

	// Sizing pass: per-shard pair counts streamed off the writers' compact
	// shard-id arrays (4 bytes per pair, not the 48-byte entries), then
	// table allocation under one arena lock. This is the freeze's whole
	// layout cost — the merge phase of the split.
	if cap(b.counts) < p {
		b.counts = make([]int64, p)
	}
	counts := b.counts[:p]
	clear(counts)
	for _, w := range ws {
		for _, si := range w.sis {
			counts[si]++
		}
	}
	a.lock()
	for si := 0; si < p; si++ {
		n := int(counts[si])
		if n == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.size = n
		cap := 1
		for cap < 2*n {
			cap <<= 1
		}
		sh.slots, sh.bits = a.grabTableLocked(cap)
		sh.mask = uint64(cap - 1)
	}
	a.unlock()
	t1 := time.Now()

	// Fused insert: pairs stream out of the writers in merge order and land
	// in their slot tables in one touch. counts is reused to tally each
	// shard's duplicate values, so duplicate-free shards skip the overflow
	// scan below.
	dups := b.dups[:0]
	clear(counts)
	for _, w := range ws {
		for i := range w.ents {
			e := &w.ents[i]
			si := uint32(e.hs)
			sh := &s.shards[si]
			j := (e.hs >> 32) & sh.mask
			for {
				if !sh.occupied(j) {
					sh.claim(j)
					sl := &sh.slots[j]
					sl.key = e.kv.Key
					sl.first = e.kv.Value
					sl.count = 1
					sl.fill = 1
					sl.off = 0
					break
				}
				sl := &sh.slots[j]
				if sl.key == e.kv.Key {
					sl.count++
					counts[si]++
					dups = append(dups, dupValue{si: int32(si), slot: int32(j), v: e.kv.Value})
					break
				}
				j = (j + 1) & sh.mask
			}
		}
	}

	// Overflow placement: shards with duplicates get slab offsets in slot
	// order (identical to the counting build's overflow scan), then the
	// stashed values replay in arrival order — per shard that is the
	// machine-id merge order, so index assignment is byte-identical.
	if len(dups) > 0 {
		a.lock()
		for si := 0; si < p; si++ {
			if counts[si] == 0 {
				continue
			}
			sh := &s.shards[si]
			overflow := int32(0)
			sh.forOccupied(func(j int) {
				if sh.slots[j].count > 1 {
					sh.slots[j].off = overflow
					overflow += sh.slots[j].count - 1
				}
			})
			sh.slab = a.grabSlabLocked(int(overflow))
		}
		a.unlock()
		for i := range dups {
			d := &dups[i]
			sh := &s.shards[d.si]
			sl := &sh.slots[d.slot]
			sh.slab[sl.off+sl.fill-1] = d.v
			sl.fill++
		}
	}
	b.dups = dups[:0]
	b.stats = FreezeStats{Merge: t1.Sub(t0), Build: time.Since(t1)}
	return s
}

// freezePrimedParallel is the multicore freeze: the same partition pipeline
// as the counting build — per-chunk shard counts, prefix sums, scatter into
// contiguous per-shard regions, parallel index builds — except that counting
// and scatter read the stored shard ids instead of hashing.
func (b *Builder) freezePrimedParallel(a *Arena, ws []*Writer, total, workers int) *Store {
	p := b.p
	bufs := make([][]entry, len(ws))
	for i, w := range ws {
		bufs[i] = w.ents
	}
	s := &Store{shards: make([]shard, p), salt: b.salt, pairs: total, div: newDivisor(uint64(p))}
	t0 := time.Now()
	chunks := splitChunks(bufs, workers, total)

	// Counting pass over stored shard ids (no hashing).
	counts := make([]int64, len(chunks)*p)
	dispatch(len(chunks), workers, b.run, func(c int) {
		row := counts[c*p : (c+1)*p]
		for _, seg := range chunks[c] {
			for i := range seg {
				row[uint32(seg[i].hs)]++
			}
		}
	})

	starts, cursors := partitionLayout(counts, len(chunks), p)

	// Scatter pass: each chunk streams its writers' entries in order and
	// places them by stored shard id, hashes riding along for the build.
	scratch, hs, slotIdx := a.grabScratch(total)
	dispatch(len(chunks), workers, b.run, func(c int) {
		cur := cursors[c*p : (c+1)*p]
		for _, seg := range chunks[c] {
			for i := range seg {
				si := uint32(seg[i].hs)
				pos := cur[si]
				cur[si] = pos + 1
				scratch[pos] = seg[i].kv
				hs[pos] = seg[i].hs
			}
		}
	})
	t1 := time.Now()

	// Index builds: one task per shard, so a pinned scheduler keeps each
	// shard's slot arrays with the same worker every round.
	dispatch(p, workers, b.run, func(sh int) {
		lo, hi := starts[sh], starts[sh+1]
		s.shards[sh].build(scratch[lo:hi], hs[lo:hi], slotIdx[lo:hi], a)
	})
	b.stats = FreezeStats{Merge: t1.Sub(t0), Build: time.Since(t1)}
	a.putScratch(scratch, hs, slotIdx)
	return s
}

// entry is one buffered pair of a primed writer: the pair plus its packed
// write-time routing word. The high 32 bits of hs are the high hash bits —
// the only part slot insertion reads (probes start at hs >> 32) — and the
// low 32 bits hold the destination shard id, which the hash's low bits are
// free to carry because nothing downstream reads them.
type entry struct {
	kv KV
	hs uint64
}

// Writer buffers one machine's writes for the round. Unprimed it appends
// plain pairs; primed (by the owning Builder) it hashes each key once and
// appends the pair with its packed hash|shard routing word, plus the bare
// shard id to a compact side array — the freeze's sizing pass streams that
// 4-byte-per-pair array instead of re-reading the 48-byte entries, which is
// the difference between a counting pass and a length lookup.
type Writer struct {
	buf  []KV     // unprimed mode
	ents []entry  // primed mode
	sis  []uint32 // primed mode: destination shard ids, parallel to ents
	p    uint64   // shard count entries are routed for; 0 = unprimed
	salt uint64
	div  divisor // hash -> shard without a hardware divide
}

// adopt copies the builder's primed epoch into the writer — called at
// every fetch, so a writer always routes for the geometry of the store its
// round will freeze. Buffer capacity survives, so a re-adopted writer
// stays warm round to round.
func (w *Writer) adopt(b *Builder) {
	w.p, w.salt, w.div = uint64(b.p), b.salt, b.div
}

// clear empties the writer, keeping capacities.
func (w *Writer) clear() {
	w.buf = w.buf[:0]
	w.ents = w.ents[:0]
	w.sis = w.sis[:0]
}

// Grow reserves room for n more pairs, so a producer that knows its output
// size up front (a machine publishing a fixed block of records) appends
// without ever doubling and copying the buffer. It never changes what the
// writer holds or what Freeze produces.
func (w *Writer) Grow(n int) {
	if n <= 0 {
		return
	}
	if w.p == 0 {
		w.buf = slices.Grow(w.buf, n)
		return
	}
	w.ents = slices.Grow(w.ents, n)
	w.sis = slices.Grow(w.sis, n)
}

// Write appends one pair.
func (w *Writer) Write(k Key, v Value) {
	if w.p == 0 {
		w.buf = append(w.buf, KV{k, v})
		return
	}
	h := hash(k, w.salt)
	si := w.div.mod(h)
	w.ents = append(w.ents, entry{KV{k, v}, h&^uint64(0xffffffff) | si})
	w.sis = append(w.sis, uint32(si))
}

// WriteMany appends a batch of pairs in slice order, equivalent to calling
// Write on each element.
func (w *Writer) WriteMany(kvs []KV) {
	if w.p == 0 {
		w.buf = append(w.buf, kvs...)
		return
	}
	w.Grow(len(kvs))
	for i := range kvs {
		h := hash(kvs[i].Key, w.salt)
		si := w.div.mod(h)
		w.ents = append(w.ents, entry{kvs[i], h&^uint64(0xffffffff) | si})
		w.sis = append(w.sis, uint32(si))
	}
}

// Len returns the number of pairs buffered so far.
func (w *Writer) Len() int {
	if w.p == 0 {
		return len(w.buf)
	}
	return len(w.ents)
}
