package dds

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// Builder accumulates the key-value pairs written during a round and freezes
// them into the next round's Store. Each machine writes through its own
// Writer so the hot path is lock-free; Freeze merges the per-machine buffers
// in machine-id order, which makes duplicate-key index assignment
// deterministic for a fixed schedule of writes.
//
// Writers are pre-sized at NewBuilder time: the runtime knows the machine
// count up front, so Writer(m) is a plain indexed lookup with no lock and no
// allocation, and a builder is reused across rounds, keeping each machine's
// buffer capacity warm.
//
// A builder writes for one store geometry at a time. Prime(p, salt) — which
// the AMPC runtime calls every round, because it draws the next store's salt
// before the round executes — arms it; each Write then hashes its key once,
// resolves the destination shard, and appends a 24-byte entry — the high
// hash bits and the pair's int32 words — plus the shard id to the writer's
// buffers. Freeze never hashes: it sizes every shard's slot table from the
// stored shard ids, then inserts each pair straight into its table reusing
// the stored hash bits. A builder must be primed before its first Writer
// call.
//
// (An earlier design kept a physical per-shard bucket per writer, making the
// freeze a pure sized merge with no counting read. It measured slower: every
// Write then scattered an entry append across p bucket tails — two
// dependent cache misses on the hottest path in the system — where the flat
// buffer is a single streaming append. Reading stored shard ids is cheap;
// write-time cache misses are not.)
type Builder struct {
	writers []*Writer

	// Primed epoch: the shard count and salt writers pre-hash for; p == 0
	// until the first Prime. Writers copy the epoch when fetched; div caches
	// the shard-count reduction so a fetch never recomputes it.
	placement

	freezer
}

// placement is a store's geometry as its writers and freezes route by: the
// shard count, the salt, and the reduction of a hash to a shard.
type placement struct {
	p    int
	salt uint64
	div  divisor
}

// newPlacement returns the placement of a store sharded p ways under salt;
// p <= 0 means one shard.
func newPlacement(p int, salt uint64) placement {
	if p <= 0 {
		p = 1
	}
	if p > 1<<30 {
		// A shard id must fit the writers' uint32 shard-id array.
		panic(fmt.Sprintf("dds: a store of p=%d shards: more than 2^30", p))
	}
	return placement{p: p, salt: salt, div: newDivisor(uint64(p))}
}

// freezer is what a freeze runs with besides its input: the scheduler of
// its tasks, the last freeze's stats, and scratch reused across freezes —
// per-shard pair counts, the shard-to-task ownership map, each insert
// task's stash of duplicate-key values awaiting slab placement, and each
// shard's duplicated keys: a stashed key holds the first value's words as
// va and vb and, once its shard is laid out, the slab cursor as kb. A
// task's stash keeps its chunks, so a later freeze with no more duplicates
// than an earlier one allocates none.
type freezer struct {
	// run, when set, schedules the freeze's tasks; the AMPC runtime passes
	// its pinned worker-pool scheduler here.
	run Parallel

	// stats records the last freeze's merge/build split and the bytes it
	// allocated fresh.
	stats FreezeStats

	counts []int64
	owner  []int32
	dups   []dupStash
	keys   [][]slot
	// tasks holds an emitted freeze's per-task shard counts, task-major,
	// and batches its insert tasks' entry batches.
	tasks   []int64
	batches []*entryBatch
}

// dupValue is one duplicate-key value met during a freeze: its shard, its
// key in the shard's stashed keys and the value, stashed in arrival order
// until the slab offsets are known.
type dupValue struct {
	si, key int32
	v       Value
}

// dupChunk is the number of values in one chunk of a dupStash (96 KiB).
const dupChunk = 1 << 12

// dupStash holds one insert task's duplicate-key values in arrival order, in
// fixed-size chunks: growing it never copies a value, so a freeze allocates
// no more than the stash's final size rounded up to a chunk, where an
// appended slice would allocate about five times that on its way up.
type dupStash struct {
	chunks [][]dupValue // every chunk has capacity dupChunk
	used   int          // chunks holding values; cur is the last of them
	cur    []dupValue   // the chunk being filled
}

// reset empties the stash, keeping its chunks.
func (d *dupStash) reset() { d.used, d.cur = 0, nil }

// push appends one value.
func (d *dupStash) push(v dupValue) {
	if len(d.cur) == cap(d.cur) {
		if d.used == len(d.chunks) {
			d.chunks = append(d.chunks, make([]dupValue, 0, dupChunk))
		}
		d.cur = d.chunks[d.used][:0]
		d.used++
	}
	d.cur = append(d.cur, v)
}

// chunk returns the values of chunk c, which must be below used.
func (d *dupStash) chunk(c int) []dupValue {
	if c == d.used-1 {
		return d.cur
	}
	return d.chunks[c][:dupChunk]
}

// NewBuilder returns a builder of writers for machines [0, p).
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

// SetParallel installs the scheduler Freeze runs its insert tasks on. nil
// (the default) runs them over transient goroutines; the AMPC runtime
// passes a scheduler with stable task-to-worker ownership. The schedule
// never affects the frozen store.
func (b *Builder) SetParallel(run Parallel) { b.run = run }

// Prime arms the builder for a store sharded p ways with the given placement
// salt: every subsequent Write hashes its key once, up front, and records the
// destination shard with the pair. Freeze must then be called with exactly
// this (p, salt) — the pre-computed routing is only valid for it.
//
// Priming is O(1): each writer adopts the new epoch (and discards anything
// it buffered under an old one) when it is next fetched with Writer(m) —
// which the AMPC runtime does for every machine every round — so the
// per-round floor does not grow with P. A writer written under a previous
// epoch and never re-fetched fails the freeze loudly rather than
// mis-sharding.
func (b *Builder) Prime(p int, salt uint64) {
	if p > 0 && p == b.p {
		b.salt = salt
		return
	}
	b.placement = newPlacement(p, salt)
}

// LastFreeze returns the most recent Freeze's wall-clock merge/build split
// and the table and slab bytes it allocated fresh. Zero after an empty
// freeze.
func (b *Builder) LastFreeze() FreezeStats { return b.stats }

// Writer returns an empty buffer for the given machine id. Writers for
// distinct machines may be used concurrently; a single Writer is not
// concurrency-safe. Requesting a machine's writer discards anything it
// previously buffered (a restarted machine starts from scratch), so a
// failure-injected machine's partial writes are invisible. The builder must
// have been primed.
func (b *Builder) Writer(machine int) *Writer {
	if machine < 0 {
		panic("dds: negative machine id")
	}
	if b.p == 0 {
		panic("dds: Writer on a builder that was never primed; call Prime first")
	}
	if machine >= len(b.writers) {
		panic(fmt.Sprintf("dds: Writer(%d) on a builder of %d writers", machine, len(b.writers)))
	}
	w := b.writers[machine]
	w.clear()
	w.adopt(b)
	return w
}

// allWriters returns every writer holding at least one pair, in machine-id
// order.
func (b *Builder) allWriters() []*Writer {
	ws := make([]*Writer, 0, len(b.writers))
	for _, w := range b.writers {
		if w.Len() > 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// Freeze merges all buffered writes into an immutable Store sharded p ways
// with the given salt. The inserts run in parallel for large rounds; the
// resulting store — including duplicate-key index order — is identical to a
// sequential machine-id-order merge regardless of parallelism. The builder's
// buffers are copied, so the builder may be reused immediately.
func (b *Builder) Freeze(p int, salt uint64) *Store {
	return b.FreezeArena(nil, p, salt)
}

// FreezeArena is Freeze drawing the new store's slot tables and slabs from
// the arena's recycled generation instead of the allocator. The produced
// store is identical; only the provenance of its memory changes. The
// builder must be frozen with its primed geometry: the write-time hashes and
// shard ids are a function of (p, salt), and freezing past them would
// silently mis-shard, so a mismatch panics.
func (b *Builder) FreezeArena(a *Arena, p int, salt uint64) *Store {
	if b.p == 0 || (p != b.p && !(p <= 0 && b.p == 1)) || salt != b.salt {
		panic(fmt.Sprintf("dds: Freeze(p=%d, salt=%#x) on a builder primed for (p=%d, salt=%#x)",
			p, salt, b.p, b.salt))
	}
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
	return b.freeze(a, ws, total, buildWorkers(total))
}

// freeze inserts the writers' pre-hashed entries straight into their shards'
// slot tables, in place: no key is hashed, no modulo is taken, and no pair is
// copied anywhere but its slot. The sizing pass counts every shard's pairs
// off the writers' compact shard-id arrays; every insert task streams all
// writers in machine-id order.
func (b *Builder) freeze(a *Arena, ws []*Writer, total, workers int) *Store {
	return b.build(a, nil, b.placement, total, workers, func(counts []int64) {
		for _, w := range ws {
			for _, si := range w.sis {
				counts[si]++
			}
		}
	}, func(s *Store, owner []int32, k int32, keys [][]slot, dups *dupStash) {
		s.insertWriters(ws, owner, k, keys, dups)
	})
}

// build is every freeze's skeleton. size adds each shard's pairs to counts
// (which hold the base's shard sizes, or zeros); then `workers` tasks run
// through the scheduler, task k owning the shards with si % workers == k,
// first to grab those shards' tables and then to insert their pairs: a
// non-nil base's first, then fill's, then the duplicate-key values each
// task stashed. fill must hand every shard its pairs in input order, so each
// shard sees exactly the sequential merge order and the store is
// byte-identical for any worker count or schedule. With one worker it is a
// single sequential pass.
func (f *freezer) build(a *Arena, base *Store, pl placement, total, workers int,
	size func(counts []int64), fill func(s *Store, owner []int32, k int32, keys [][]slot, dups *dupStash)) *Store {
	p := pl.p
	s := &Store{shards: make([]shard, p), salt: pl.salt, pairs: total, div: pl.div}
	f.stats = FreezeStats{}
	if total == 0 {
		return s
	}
	workers = max(1, min(workers, p))
	t0 := time.Now()

	// Sizing pass; then every task grabs its own shards' tables, so fresh
	// tables are zeroed on every core. This is the freeze's whole layout
	// cost — the merge phase of the split.
	if cap(f.counts) < p {
		f.counts = make([]int64, p)
		f.owner = make([]int32, p)
	}
	counts, owner := f.counts[:p], f.owner[:p]
	clear(counts)
	if base != nil {
		for si := range counts {
			counts[si] = int64(base.shards[si].size)
		}
	}
	size(counts)
	for si := range owner {
		owner[si] = int32(si % workers)
	}
	for len(f.dups) < workers {
		f.dups = append(f.dups, dupStash{})
	}
	for len(f.keys) < p {
		f.keys = append(f.keys, nil)
	}
	var freshTables, freshSlabs atomic.Int64
	dispatch(workers, workers, f.run, func(k int) {
		fresh := int64(0)
		for si := k; si < p; si += workers {
			fresh += s.shards[si].grab(a, int(counts[si]))
			f.keys[si] = f.keys[si][:0]
		}
		freshTables.Add(fresh)
	})
	t1 := time.Now()

	dispatch(workers, workers, f.run, func(k int) {
		dups := &f.dups[k]
		dups.reset()
		if base != nil {
			for si := k; si < p; si += workers {
				s.shards[si].insertBase(&base.shards[si], int32(si), pl.salt, f.keys, dups)
			}
		}
		fill(s, owner, int32(k), f.keys, dups)
		freshSlabs.Add(s.placeDups(a, f.keys, dups))
	})
	f.stats = FreezeStats{Merge: t1.Sub(t0), Build: time.Since(t1),
		FreshTableBytes: freshTables.Load(), FreshSlabBytes: freshSlabs.Load()}
	return s
}

// insertWriters is one buffered freeze task: it streams every writer's
// entries in machine-id order and inserts the pairs of the shards owner
// assigns to task k.
func (s *Store) insertWriters(ws []*Writer, owner []int32, k int32, keys [][]slot, dups *dupStash) {
	for _, w := range ws {
		s.insertEntries(w.ents, w.sis, w.wide, owner, k, keys, dups)
	}
}

// insertEntries inserts, in order, the pre-hashed entries whose shard ids
// owner assigns to task k; a wide entry's pair is in wide. It is the insert
// loop of every freeze.
func (s *Store) insertEntries(ents []entry, sis []uint32, wide []KV, owner []int32, k int32, keys [][]slot, dups *dupStash) {
	ents = ents[:len(sis)]
	for i, si := range sis {
		if owner[si] != k {
			continue
		}
		e := &ents[i]
		sh := &s.shards[si]
		j := uint64(e.h) & sh.mask
		if e.wide {
			sh.insertWide(wide[e.ka], j, int32(si), keys, dups)
			continue
		}
		sh.insert(j, slot{tag: e.tag, ka: e.ka, kb: e.kb, va: e.va, vb: e.vb}, int32(si), keys, dups)
	}
}

// insert inserts a narrow pair, given as the slot it claims, probing from
// slot j: a claimed slot takes it whole at once, and a value of a key the
// shard already holds is stashed in dups, in arrival order, to be placed
// once every owned shard's counts are final.
func (sh *shard) insert(j uint64, e slot, si int32, keys [][]slot, dups *dupStash) {
	for {
		if !sh.occupied(j) {
			sh.claim(j)
			sh.slots[j] = e
			return
		}
		sl := &sh.slots[j]
		if sl.ka == e.ka && sl.kb == e.kb && sl.tag == e.tag && sl.flags&wideKey == 0 {
			sh.addDup(j, si, Value{A: int64(e.va), B: int64(e.vb)}, keys, dups)
			return
		}
		j = (j + 1) & sh.mask
	}
}

// placeDups places a task's stashed duplicate-key values in their shards'
// slabs and returns the bytes of the slabs it allocated fresh. It replays
// the stash backwards, chunk by chunk: layoutOverflow leaves each stashed
// key's cursor at the end of its slab run, and every value steps it back by
// one, so a key's values land in arrival order — per shard the input order.
func (s *Store) placeDups(a *Arena, keys [][]slot, dups *dupStash) int64 {
	fresh := int64(0)
	for c := dups.used - 1; c >= 0; c-- {
		chunk := dups.chunk(c)
		for i := len(chunk) - 1; i >= 0; i-- {
			d := &chunk[i]
			sh := &s.shards[d.si]
			if sh.slab == nil {
				fresh += sh.layoutOverflow(a, keys[d.si])
			}
			key := &keys[d.si][d.key]
			key.kb--
			sh.slab[key.kb] = d.v
		}
	}
	return fresh
}

// addDup stashes v, one more value of the key in slot j of shard si. The
// key's first extra value marks the slot duplicated and moves its first
// value's words to a new stashed key; until layoutOverflow the slot's va
// indexes that key and its vb counts the key's values.
func (sh *shard) addDup(j uint64, si int32, v Value, keys [][]slot, dups *dupStash) {
	sl := &sh.slots[j]
	if sl.flags&dupKey == 0 {
		keys[si] = append(keys[si], slot{va: sl.va, vb: sl.vb})
		sl.flags, sl.va, sl.vb = sl.flags|dupKey, int32(len(keys[si])-1), 1
	}
	sl.vb++
	dups.push(dupValue{si: si, key: sl.va, v: v})
}

// insertWide inserts a pair with a wide key or value, probing from slot j.
func (sh *shard) insertWide(kv KV, j uint64, si int32, keys [][]slot, dups *dupStash) {
	for ; sh.occupied(j); j = (j + 1) & sh.mask {
		if sh.key(&sh.slots[j]) == kv.Key {
			sh.addDup(j, si, kv.Value, keys, dups)
			return
		}
	}
	sh.claim(j)
	sh.set(j, kv.Key, kv.Value)
}

// insertBase inserts a base shard's keys into this shard's empty table,
// each claiming its slot with its first value and stashing the rest in index
// order. Keys go in the base table's
// probe order — ascending from an empty slot, wrapping — which visits every
// cluster from its start. That reproduces the slots the base's original
// insertion order gives in this table: the table is the base's size or a
// power-of-two multiple of it, probing starts at the same hash bits, and a
// key probes past another here only if it did in the base table, where the
// one it passed sits ahead of it in probe order.
func (sh *shard) insertBase(base *shard, si int32, salt uint64, keys [][]slot, dups *dupStash) {
	base.forProbeOrder(func(i int) {
		bs := &base.slots[i]
		k := base.key(bs)
		j := (hash(k, salt) >> 32) & sh.mask
		for sh.occupied(j) {
			j = (j + 1) & sh.mask
		}
		sh.claim(j)
		sh.set(j, k, base.first(bs))
		for x := 1; x < base.count(bs); x++ {
			sh.addDup(j, si, base.value(bs, x), keys, dups)
		}
	})
}

// grab sizes the shard for n pairs: a tableSlots(n) slot table, from the
// arena when it holds one with room for it. It returns the table's bytes
// if it was allocated fresh, else 0.
func (sh *shard) grab(a *Arena, n int) int64 {
	if n == 0 {
		return 0
	}
	cap := tableSlots(uint64(n))
	sh.size = n
	var fresh int64
	sh.slots, sh.bits, fresh = a.grabTable(int(cap))
	sh.mask = cap - 1
	return fresh
}

// layoutOverflow sizes the shard's overflow slab and gives every duplicated
// slot its entry and its run in slot order — the scan order the serialized
// format's slab offsets are defined by — leaving the stash key's cursor at
// the end of the run for the backward placement to rewind. It returns the
// slab's bytes if it was allocated fresh, else 0.
func (sh *shard) layoutOverflow(a *Arena, keys []slot) int64 {
	overflow, free := int32(0), uint64(0)
	sh.forOccupied(func(j int) {
		if sl := &sh.slots[j]; sl.flags&dupKey != 0 {
			key, count := &keys[sl.va], sl.vb
			sl.va, sl.vb = key.va, key.vb
			free = sh.dupe(uint64(j), free, count, overflow)
			overflow += count - 1
			key.kb = overflow
		}
	})
	var fresh int64
	sh.slab, fresh = a.grabSlab(int(overflow))
	return fresh
}

// entry is one buffered pair of a writer, 24 bytes: the high 32 hash bits
// — the only part slot insertion reads (probes start at h) — and the pair's
// words as a slot holds them. A pair with a word that does not fit int32 is
// wide: its entry's ka indexes the writer's wide buffer instead.
type entry struct {
	h      uint32
	tag    uint8
	wide   bool
	ka, kb int32
	va, vb int32
}

// Writer buffers one machine's writes for the round. It hashes each key once
// and appends the entry, plus the bare shard id to a compact side array —
// the freeze's sizing pass and its tasks' ownership filter stream that
// 4-byte-per-pair array instead of re-reading the entries.
type Writer struct {
	ents []entry
	sis  []uint32 // destination shard ids, parallel to ents
	wide []KV     // the wide pairs entries index
	p    uint64   // shard count entries are routed for
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
	w.ents, w.sis, w.wide = w.ents[:0], w.sis[:0], w.wide[:0]
}

// Grow reserves room for n more pairs, so a producer that knows its output
// size up front (a machine publishing a fixed block of records) appends
// without ever doubling and copying the buffer. It never changes what the
// writer holds or what Freeze produces.
func (w *Writer) Grow(n int) {
	if n <= 0 {
		return
	}
	w.ents = slices.Grow(w.ents, n)
	w.sis = slices.Grow(w.sis, n)
}

// Write appends one pair.
func (w *Writer) Write(k Key, v Value) {
	h := hash(k, w.salt)
	e := entry{h: uint32(h >> 32), tag: k.Tag, ka: int32(k.A), kb: int32(k.B), va: int32(v.A), vb: int32(v.B)}
	if !narrow(k.A, k.B) || !narrow(v.A, v.B) {
		e.wide, e.ka = true, int32(len(w.wide))
		w.wide = append(w.wide, KV{k, v})
	}
	w.ents = append(w.ents, e)
	w.sis = append(w.sis, uint32(w.div.mod(h)))
}

// WriteMany appends a batch of pairs in slice order, equivalent to calling
// Write on each element. It repeats Write's body: a call per pair measured
// slower.
func (w *Writer) WriteMany(kvs []KV) {
	w.Grow(len(kvs))
	for i := range kvs {
		k, v := kvs[i].Key, kvs[i].Value
		h := hash(k, w.salt)
		e := entry{h: uint32(h >> 32), tag: k.Tag, ka: int32(k.A), kb: int32(k.B), va: int32(v.A), vb: int32(v.B)}
		if !narrow(k.A, k.B) || !narrow(v.A, v.B) {
			e.wide, e.ka = true, int32(len(w.wide))
			w.wide = append(w.wide, kvs[i])
		}
		w.ents = append(w.ents, e)
		w.sis = append(w.sis, uint32(w.div.mod(h)))
	}
}

// Len returns the number of pairs buffered so far.
func (w *Writer) Len() int { return len(w.ents) }
