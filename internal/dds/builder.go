package dds

import (
	"fmt"
	"slices"
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
	p    int
	salt uint64
	div  divisor

	// run, when set, schedules Freeze's insert tasks; the AMPC runtime
	// passes its pinned worker-pool scheduler here.
	run Parallel

	// stats records the last Freeze's merge/build wall-clock split.
	stats FreezeStats

	// Scratch reused across freezes: per-shard pair counts, the shard-to-task
	// ownership map, and each insert task's stashed duplicate-key values
	// awaiting slab placement.
	counts []int64
	owner  []int32
	dups   [][]dupValue
}

// dupValue is one duplicate-key value met during a freeze: the slot it
// belongs to and the value, stashed in arrival order until the slab offsets
// are known.
type dupValue struct {
	si   int32 // shard index
	slot int32 // slot index within the shard
	v    Value
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
	if p <= 0 {
		p = 1
	}
	if p > 1<<30 {
		// A shard id must fit the writers' uint32 shard-id array.
		panic(fmt.Sprintf("dds: Prime(p=%d): more than 2^30 shards", p))
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
	return b.FreezeOnto(a, nil, p, salt)
}

// FreezeOnto is FreezeArena on top of a base store: the frozen store holds
// base's pairs and then the writers', byte-identical to NewStore over base's
// input followed by the writes in machine-id order. Each shard inserts the
// base's keys first, every key with its values in index order, so a key
// written again gains values after its base ones. base must be sharded p
// ways under salt; nil means none. The AMPC runtime's static store grows
// this way, one counted round per publish, without keeping its input.
func (b *Builder) FreezeOnto(a *Arena, base *Store, p int, salt uint64) *Store {
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
	if base != nil {
		if len(base.shards) != b.p || base.salt != b.salt {
			panic(fmt.Sprintf("dds: FreezeOnto a base of (p=%d, salt=%#x) on a builder primed for (p=%d, salt=%#x)",
				len(base.shards), base.salt, b.p, b.salt))
		}
		total += base.pairs
	}
	return b.freeze(a, base, ws, total, buildWorkers(total))
}

// freeze inserts the writers' pre-hashed entries straight into their shards'
// slot tables, in place: no key is hashed, no modulo is taken, and no pair is
// copied anywhere but its slot. A sizing pass counts every shard's pairs off
// the writers' compact shard-id arrays; then `workers` tasks run through the
// scheduler, task k owning the shards with si % workers == k, first to grab
// those shards' tables and then to insert their pairs. Every task streams all
// writers in machine-id order, so each shard sees its pairs in exactly the
// sequential merge order and the store is byte-identical for any worker
// count or schedule. With one worker it is a single sequential pass. A
// non-nil base's shards are sized in and re-inserted ahead of the writers.
func (b *Builder) freeze(a *Arena, base *Store, ws []*Writer, total, workers int) *Store {
	p := b.p
	s := &Store{shards: make([]shard, p), salt: b.salt, pairs: total, div: b.div}
	b.stats = FreezeStats{}
	if total == 0 {
		return s
	}
	workers = max(1, min(workers, p))
	t0 := time.Now()

	// Sizing pass: per-shard pair counts streamed off the shard-id arrays
	// (4 bytes per pair, not the 24-byte entries); then every task grabs its
	// own shards' tables, so fresh tables are zeroed on every core. This is
	// the freeze's whole layout cost — the merge phase of the split.
	if cap(b.counts) < p {
		b.counts = make([]int64, p)
		b.owner = make([]int32, p)
	}
	counts, owner := b.counts[:p], b.owner[:p]
	clear(counts)
	if base != nil {
		for si := range counts {
			counts[si] = int64(base.shards[si].size)
		}
	}
	for _, w := range ws {
		for _, si := range w.sis {
			counts[si]++
		}
	}
	for si := range owner {
		owner[si] = int32(si % workers)
	}
	for len(b.dups) < workers {
		b.dups = append(b.dups, nil)
	}
	dispatch(workers, workers, b.run, func(k int) {
		for si := k; si < p; si += workers {
			s.shards[si].grab(a, int(counts[si]))
		}
	})
	t1 := time.Now()

	dispatch(workers, workers, b.run, func(k int) {
		dups := b.dups[k][:0]
		if base != nil {
			for si := k; si < p; si += workers {
				dups = s.shards[si].insertBase(&base.shards[si], int32(si), b.salt, dups)
			}
		}
		b.dups[k] = s.insertOwned(a, ws, owner, int32(k), dups)
	})
	b.stats = FreezeStats{Merge: t1.Sub(t0), Build: time.Since(t1)}
	return s
}

// insertOwned is one freeze task: it streams every writer's entries in
// machine-id order and inserts the pairs of the shards owner assigns to task
// k. A claimed slot takes a narrow entry's fields at once; duplicate-key
// values are stashed in dups, in arrival order, and placed once every owned
// shard's slot counts are final. It returns the stash for reuse.
func (s *Store) insertOwned(a *Arena, ws []*Writer, owner []int32, k int32, dups []dupValue) []dupValue {
	for _, w := range ws {
		ents := w.ents[:len(w.sis)]
		for i, si := range w.sis {
			if owner[si] != k {
				continue
			}
			e := &ents[i]
			sh := &s.shards[si]
			j := uint64(e.h) & sh.mask
			if e.wide {
				dups = sh.insertWide(w.wide[e.ka], j, int32(si), dups)
				continue
			}
			for {
				if !sh.occupied(j) {
					sh.claim(j)
					sh.slots[j] = slot{tag: e.tag, ka: e.ka, kb: e.kb, va: e.va, vb: e.vb, count: 1}
					break
				}
				sl := &sh.slots[j]
				if sl.ka == e.ka && sl.kb == e.kb && sl.tag == e.tag && sl.flags&wideKey == 0 {
					sl.count++
					dups = append(dups, dupValue{si: int32(si), slot: int32(j), v: Value{A: int64(e.va), B: int64(e.vb)}})
					break
				}
				j = (j + 1) & sh.mask
			}
		}
	}

	// Overflow placement replays the stash backwards: layoutOverflow points
	// each duplicated slot's off one past the end of its slab run, and every
	// value steps off back by one, so a key's values land in arrival order —
	// per shard the machine-id merge order — and off ends at the run's start.
	for i := len(dups) - 1; i >= 0; i-- {
		d := &dups[i]
		sh := &s.shards[d.si]
		if sh.slab == nil {
			sh.layoutOverflow(a)
		}
		sl := &sh.slots[d.slot]
		sl.off--
		sh.slab[sl.off] = d.v
	}
	return dups
}

// insertWide inserts a pair with a wide key or value, probing from slot j.
func (sh *shard) insertWide(kv KV, j uint64, si int32, dups []dupValue) []dupValue {
	for ; sh.occupied(j); j = (j + 1) & sh.mask {
		if sh.key(&sh.slots[j]) == kv.Key {
			sh.slots[j].count++
			return append(dups, dupValue{si: si, slot: int32(j), v: kv.Value})
		}
	}
	sh.claim(j)
	sh.set(j, kv.Key, kv.Value, 1, 0)
	return dups
}

// insertBase inserts a base shard's keys into this shard's empty table,
// each claiming its slot with its count and stashing its values past the
// first in index order, and returns the stash. Keys go in the base table's
// probe order — ascending from an empty slot, wrapping — which visits every
// cluster from its start. That reproduces the slots the base's original
// insertion order gives in this table: the table is the base's size or a
// power-of-two multiple of it, probing starts at the same hash bits, and a
// key probes past another here only if it did in the base table, where the
// one it passed sits ahead of it in probe order.
func (sh *shard) insertBase(base *shard, si int32, salt uint64, dups []dupValue) []dupValue {
	base.forProbeOrder(func(i int) {
		bs := &base.slots[i]
		k := base.key(bs)
		j := (hash(k, salt) >> 32) & sh.mask
		for sh.occupied(j) {
			j = (j + 1) & sh.mask
		}
		sh.claim(j)
		sh.set(j, k, base.first(bs), bs.count, 0)
		for x := 1; x < int(bs.count); x++ {
			dups = append(dups, dupValue{si: si, slot: int32(j), v: base.value(bs, x)})
		}
	})
	return dups
}

// grab sizes the shard for n pairs: a tableSlots(n) slot table, from the
// arena when it holds one of that capacity.
func (sh *shard) grab(a *Arena, n int) {
	if n == 0 {
		return
	}
	cap := tableSlots(uint64(n))
	sh.size = n
	sh.slots, sh.bits = a.grabTable(int(cap))
	sh.mask = cap - 1
}

// layoutOverflow sizes the shard's overflow slab and gives every duplicated
// slot its run in slot order — the scan order the serialized format's slab
// offsets are defined by — leaving off at the end of the run for the
// backward placement to rewind.
func (sh *shard) layoutOverflow(a *Arena) {
	overflow := int32(0)
	sh.forOccupied(func(j int) {
		if c := sh.slots[j].count; c > 1 {
			overflow += c - 1
			sh.slots[j].off = overflow
		}
	})
	sh.slab = a.grabSlab(int(overflow))
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
