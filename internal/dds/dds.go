// Package dds implements the distributed data store (DDS) at the heart of
// the AMPC model of Behnezhad et al. (SPAA 2019).
//
// The model posits a collection of stores D0, D1, D2, ... with key-value
// semantics. In round i machines read from D_{i-1} and write to D_i; within
// a round the read store is immutable. Key-value pairs have constant size.
// When k > 1 pairs share a key x, the individual values are addressed as
// (x, 1), ..., (x, k) with arbitrary index assignment.
//
// This package provides:
//
//   - Store: a frozen, sharded, read-only snapshot (the D_{i-1} of a round),
//   - Builder: the write side that accumulates the next round's pairs and
//     freezes into a Store,
//   - per-shard load accounting so the contention analysis of the paper's
//     Lemma 2.1 can be validated empirically.
//
// Pairs are assigned to shards by a salted hash, modelling the paper's
// assumption that "key-value pairs are randomly and independently assigned
// to the machines handling the DDS". The salt is drawn per store so the
// placement is independent of the keys an algorithm chooses to query.
//
// Storage engine: each shard is a flat open-addressing hash index rather
// than a Go map. A 20-byte slot, laid out as a section record, holds the key
// and the first value inline as int32 words (one probe, no indirection); a
// duplicated key's slot indexes an unclaimed slot holding its first value,
// count and offset into an overflow slab of values 1..k-1. Every algorithm's
// keys and values fit int32 words; the rare word that does not spills its key
// or first value to a per-shard side table, so Key and Value stay two int64 words.
// Every store is frozen the same way: writers hash each pair once at write
// time, a sizing pass counts every shard's pairs, and tasks — each owning a
// stripe of shards — grab their shards' slot tables, stream the writers in
// machine-id order and insert their pairs in place.
// The freeze is deterministic for any worker count: every shard sees its
// pairs in input order, so duplicate-key index assignment is byte-identical
// to a sequential machine-id-order merge — the property the runtime's
// fault-tolerance argument depends on.
package dds

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies a constant-size key: a small tag discriminating the kind of
// record plus two integer words. This matches the model's requirement that a
// key consist of a constant number of words.
type Key struct {
	Tag  uint8
	A, B int64
}

// Value is a constant-size value of two integer words.
type Value struct {
	A, B int64
}

func (k Key) String() string { return fmt.Sprintf("(%d,%d,%d)", k.Tag, k.A, k.B) }

// KV is a key-value pair, used when writing batches.
type KV struct {
	Key   Key
	Value Value
}

// hash mixes a key with the store's salt into a shard index. It uses the
// SplitMix64 finalizer, which is a strong 64-bit mixer.
func hash(k Key, salt uint64) uint64 {
	x := salt
	x ^= uint64(k.Tag) * 0x9e3779b97f4a7c15
	x = mix(x)
	x ^= uint64(k.A)
	x = mix(x)
	x ^= uint64(k.B)
	return mix(x)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// divisor computes n % d without a hardware divide. Shard routing takes a
// modulo on every read and every pre-hashed write, and a 64-bit DIV costs
// tens of cycles on most x86 parts; with d fixed per store the remainder
// reduces to three multiplies (Lemire's direct-remainder construction):
// with c = ceil(2^128/d), the low 128 bits of c*n are (2^128*(n%d)+e*n)/d
// for e = c*d-2^128 < d, and multiplying them by d and keeping the top 128
// bits yields exactly n%d because e*n < d*2^64 <= 2^128. The result equals
// n % d bit-for-bit for every n, so placements — and the golden serialized
// stores that pin them — are unchanged; TestDivisorMatchesMod proves it.
type divisor struct {
	d        uint64
	mhi, mlo uint64 // ceil(2^128 / d); meaningful for d >= 2
}

// newDivisor precomputes the reduction constants for d.
func newDivisor(d uint64) divisor {
	dv := divisor{d: d}
	if d < 2 {
		return dv
	}
	q1, r1 := bits.Div64(1, 0, d) // floor(2^64/d), requires d > 1
	q2, r2 := bits.Div64(r1, 0, d)
	dv.mhi, dv.mlo = q1, q2
	if r2 != 0 { // round the 128-bit quotient up
		var carry uint64
		dv.mlo, carry = bits.Add64(dv.mlo, 1, 0)
		dv.mhi += carry
	}
	return dv
}

// mod returns n % dv.d.
func (dv divisor) mod(n uint64) uint64 {
	if dv.d < 2 {
		return 0
	}
	// lowbits = (c * n) mod 2^128, with c = mhi:mlo.
	hi1, lbLo := bits.Mul64(dv.mlo, n)
	lbHi := hi1 + dv.mhi*n
	// n % d = floor(lowbits * d / 2^128).
	h2, _ := bits.Mul64(lbLo, dv.d)
	h3, l3 := bits.Mul64(lbHi, dv.d)
	_, carry := bits.Add64(l3, h2, 0)
	return h3 + carry
}

// slot is one entry of a shard's open-addressing index, 20 bytes as a
// section record: the key's tag and words and the first value inline as
// int32. Vertex ids, indices, degrees and ranks fit (n < 2³¹). A word that
// does not fit (an MSF weight past 2³¹, say) spills: wideKey makes ka index
// the shard's wkeys, wideVal makes the first value's A word index its wvals.
// A key is wide exactly when a word does not fit, so a narrow and a wide key
// never compare equal. A duplicated key (dupKey) has va index an unclaimed
// slot of the table, its entry, holding the key's count and the slab offset
// of values 1..count-1 as ka and kb and the first value's words as va and
// vb. Occupancy lives in the shard's bitmap, so probes never read an entry;
// unclaimed slots may hold stale bytes, and a claimed slot is written whole.
type slot struct {
	tag, flags uint8
	ka, kb     int32
	va, vb     int32
}

// Slot flags, also a section record's: its head is tag | flags<<8.
const (
	wideKey uint8 = 1 << iota
	wideVal
	dupKey
)

// narrow reports whether both words fit a slot's int32 fields.
func narrow(a, b int64) bool { return int64(int32(a)) == a && int64(int32(b)) == b }

// shard holds the pairs that hashed to one DDS machine as a flat index.
// bits is the slot-occupancy bitmap, one bit per slot. Keeping emptiness
// out of the slot records means a recycled table is reset by clearing the
// bitmap — 1/160th of the slot bytes — instead of zeroing every record, and
// the build's probes for free slots read the cache-resident bitmap instead
// of cold slot records. wkeys and wvals hold the rare wide keys and first
// values the slots index.
type shard struct {
	slots []slot
	bits  []uint64
	mask  uint64
	slab  []Value
	wkeys []Key
	wvals []Value
	size  int          // pairs resident on this shard
	dups  int          // duplicated keys, each 8 section bytes (sectionBytes)
	load  atomic.Int64 // queries answered by this shard
}

// occupied reports whether slot i holds a pair.
func (sh *shard) occupied(i uint64) bool {
	return sh.bits[i>>6]>>(i&63)&1 != 0
}

// claim marks slot i occupied.
func (sh *shard) claim(i uint64) {
	sh.bits[i>>6] |= 1 << (i & 63)
}

// set writes every field of slot j, spilling a wide key or first value.
func (sh *shard) set(j uint64, k Key, v Value) {
	sl := slot{tag: k.Tag, ka: int32(k.A), kb: int32(k.B), va: int32(v.A), vb: int32(v.B)}
	if !narrow(k.A, k.B) {
		sl.flags, sl.ka = wideKey, int32(len(sh.wkeys))
		sh.wkeys = append(sh.wkeys, k)
	}
	if !narrow(v.A, v.B) {
		sl.flags, sl.va = sl.flags|wideVal, int32(len(sh.wvals))
		sh.wvals = append(sh.wvals, v)
	}
	sh.slots[j] = sl
}

// dupe makes slot j hold count values, the rest at slab[off:], its entry in
// the first unclaimed slot from free on (a table at most half full has one
// for every duplicated key); it returns the slot after the entry.
func (sh *shard) dupe(j, free uint64, count, off int32) uint64 {
	for sh.occupied(free) {
		free++
	}
	sl := &sh.slots[j]
	sh.slots[free] = slot{ka: count, kb: off, va: sl.va, vb: sl.vb}
	sl.flags, sl.va = sl.flags|dupKey, int32(free)
	sh.dups++
	return free + 1
}

// key returns the key slot sl holds.
func (sh *shard) key(sl *slot) Key {
	if sl.flags&wideKey != 0 {
		return sh.wkeys[sl.ka]
	}
	return Key{Tag: sl.tag, A: int64(sl.ka), B: int64(sl.kb)}
}

// first returns the value at index 0 of slot sl.
func (sh *shard) first(sl *slot) Value {
	va, vb := sl.va, sl.vb
	if sl.flags&dupKey != 0 {
		va, vb = sh.slots[va].va, sh.slots[va].vb
	}
	if sl.flags&wideVal != 0 {
		return sh.wvals[va]
	}
	return Value{A: int64(va), B: int64(vb)}
}

// count returns the number of values slot sl holds.
func (sh *shard) count(sl *slot) int {
	if sl.flags&dupKey != 0 {
		return int(sh.slots[sl.va].ka)
	}
	return 1
}

// off returns the slab offset of a duplicated slot's values past the first.
func (sh *shard) off(sl *slot) int { return int(sh.slots[sl.va].kb) }

// find returns the slot holding k, or nil. The table is at most half full,
// so linear probing terminates at an empty slot. The key compare and the
// occupancy load are arranged dependency-free — the slot line and the
// bitmap word load in parallel — so the bitmap adds no latency to the hit
// path; the occupancy check gates the match because an unclaimed slot may
// hold stale bytes that happen to equal k. A wide k compares only wideKey
// slots, through wkeys.
func (sh *shard) find(k Key, h uint64) *slot {
	slots, bm := sh.slots, sh.bits
	if len(slots) == 0 {
		return nil
	}
	a, b, wide := int32(k.A), int32(k.B), !narrow(k.A, k.B)
	i := (h >> 32) & sh.mask
	for {
		sl := &slots[i]
		occ := bm[i>>6] >> (i & 63) & 1
		if wide {
			if occ != 0 && sl.flags&wideKey != 0 && sh.wkeys[sl.ka] == k {
				return sl
			}
		} else if sl.ka == a && sl.kb == b && sl.tag == k.Tag && sl.flags&wideKey == 0 && occ != 0 {
			return sl
		}
		if occ == 0 {
			return nil
		}
		i = (i + 1) & sh.mask
	}
}

// value returns the i-th (0-based) value of a slot.
func (sh *shard) value(sl *slot, i int) Value {
	if i == 0 {
		return sh.first(sl)
	}
	return sh.slab[sh.off(sl)+i-1]
}

// Store is an immutable snapshot of one round's data, sharded across a fixed
// number of DDS machines. All read methods are safe for concurrent use and
// record per-shard load.
type Store struct {
	shards []shard
	salt   uint64
	pairs  int
	div    divisor // routes hash -> shard without a hardware divide
}

// Parallel schedules n independent tasks f(0), ..., f(n-1). The store
// builders accept one so the caller controls where shard work runs — the
// AMPC runtime passes a scheduler with stable shard-to-worker ownership, so
// the same pool worker touches the same shard's slot arrays every round. An
// implementation must invoke every index exactly once and return only when
// all invocations have; beyond that the schedule is free, because every
// parallel phase in this package is index-independent and its output does
// not depend on interleaving.
type Parallel func(n int, f func(i int))

// FreezeStats splits the wall-clock cost of one freeze into its two phases,
// so perf trajectories can attribute a freeze delta: Merge covers the sizing
// pass (per-shard pair counts off the writers' stored shard ids) and the
// slot-table grab, Build covers inserting every pair into its table and
// placing duplicate-key values in the overflow slabs. FreshTableBytes and
// FreshSlabBytes count the slot tables (slots and bitmaps) and overflow
// slabs the freeze allocated because its arena had none with room for
// them; a freeze without an arena allocates everything fresh.
type FreezeStats struct {
	Merge           time.Duration
	Build           time.Duration
	FreshTableBytes int64
	FreshSlabBytes  int64
}

// dispatch runs n independent tasks over the chosen scheduler: inline when
// the build is small (workers <= 1), through the caller-supplied Parallel
// when one is set (pinned worker ownership), otherwise over transient
// goroutines with dynamic striping.
func dispatch(n, workers int, run Parallel, f func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if run != nil {
		run(n, f)
		return
	}
	parallelDo(n, workers, f)
}

// NewStore builds a store over the given pairs, sharded p ways with the
// given placement salt. Duplicate keys keep their slice order: the caller
// controls index assignment by the order of the input slice (the model says
// the indices 1..k are assigned arbitrarily). The input slice is not
// retained. Large inputs build in parallel; the result is identical for any
// level of parallelism.
func NewStore(pairs []KV, p int, salt uint64) *Store {
	s, _ := NewStoreArena(pairs, p, salt, nil)
	return s
}

// NewStoreArena is NewStore drawing slot tables and slabs from the arena's
// recycled generation. The produced store is identical; only the provenance
// of its memory changes. It is the builder's freeze: the pairs are split
// into contiguous runs written by consecutive machines — machine-id order is
// input order — so the hashing runs on every core too. It also returns the
// freeze's stats, the bytes it allocated fresh among them.
func NewStoreArena(pairs []KV, p int, salt uint64, a *Arena) (*Store, FreezeStats) {
	workers := buildWorkers(len(pairs))
	b := NewBuilder(workers)
	b.Prime(p, salt)
	run := (len(pairs) + workers - 1) / workers
	dispatch(workers, workers, nil, func(m int) {
		lo := min(m*run, len(pairs))
		b.Writer(m).WriteMany(pairs[lo:min(lo+run, len(pairs))])
	})
	s := b.FreezeArena(a, p, salt)
	return s, b.LastFreeze()
}

// buildWorkers picks the build parallelism for an input size: small builds
// stay sequential so per-round overhead does not grow goroutines.
func buildWorkers(pairs int) int {
	if pairs < 4096 {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// parallelDo runs f(0..n-1), striping the indices over up to `workers`
// goroutines. workers <= 1 runs inline.
func parallelDo(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// forOccupied invokes f for every occupied slot index, ascending — the scan
// order the serialized format's slab offsets are defined by. Whole empty
// bitmap words skip 64 slots at a time.
func (sh *shard) forOccupied(f func(j int)) {
	for wi, word := range sh.bits {
		for word != 0 {
			j := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			f(j)
		}
	}
}

// forProbeOrder invokes f for every occupied slot index in probe order:
// ascending from the first empty slot to the end of the table, then from
// the start up to it, so every cluster is visited from its first slot. The
// table must hold an empty slot, as every table at most half full does.
func (sh *shard) forProbeOrder(f func(j int)) {
	e := 0
	for e < len(sh.slots) && sh.occupied(uint64(e)) {
		e++
	}
	sh.forOccupied(func(j int) {
		if j > e {
			f(j)
		}
	})
	sh.forOccupied(func(j int) {
		if j < e {
			f(j)
		}
	})
}

// shardFor returns the shard owning key k and its hash, counting n queries
// against it. Reads keep the hardware modulo: the shard pointer's address
// depends on it, so the divide sits on the load's critical path where it
// measures faster than the multiply chain of divisor.mod (which wins only
// in throughput-shaped loops like the write and partition passes).
func (s *Store) shardFor(k Key, n int64) (*shard, uint64) {
	h := hash(k, s.salt)
	sh := &s.shards[h%uint64(len(s.shards))]
	sh.load.Add(n)
	return sh, h
}

// Get returns the value stored under k. If several pairs share the key it
// returns the value at index 0. The boolean reports whether the key occurs
// at all ("querying for a key that does not occur results in an empty
// response").
func (s *Store) Get(k Key) (Value, bool) {
	sh, h := s.shardFor(k, 1)
	sl := sh.find(k, h)
	if sl == nil {
		return Value{}, false
	}
	return sh.first(sl), true
}

// GetRange appends the values stored under k at indices [lo, hi) to dst and
// returns the extended slice; indices at or beyond the key's count are
// skipped. The key is probed once but the shard is charged hi-lo queries —
// a batched read moves the same hi-lo records off the shard, so Lemma 2.1
// contention accounting is unchanged.
func (s *Store) GetRange(k Key, lo, hi int, dst []Value) []Value {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return dst
	}
	sh, h := s.shardFor(k, int64(hi-lo))
	return sh.getRange(k, h, lo, hi, dst)
}

// getRange appends the values of key k, of hash h, at indices [lo, hi).
func (sh *shard) getRange(k Key, h uint64, lo, hi int, dst []Value) []Value {
	if sl := sh.find(k, h); sl != nil {
		for i, end := lo, min(hi, sh.count(sl)); i < end; i++ {
			dst = append(dst, sh.value(sl, i))
		}
	}
	return dst
}

// Count returns the number of pairs stored under k.
func (s *Store) Count(k Key) int {
	sh, h := s.shardFor(k, 1)
	sl := sh.find(k, h)
	if sl == nil {
		return 0
	}
	return sh.count(sl)
}

// Len returns the total number of pairs in the store.
func (s *Store) Len() int { return s.pairs }

// Shards returns the number of DDS machines backing the store.
func (s *Store) Shards() int { return len(s.shards) }

// ShardLoads returns a copy of the per-shard query counters accumulated so
// far. Used to validate the contention bound of Lemma 2.1.
func (s *Store) ShardLoads() []int64 {
	loads := make([]int64, len(s.shards))
	for i := range s.shards {
		loads[i] = s.shards[i].load.Load()
	}
	return loads
}

// MaxShardLoad returns the largest per-shard query count.
func (s *Store) MaxShardLoad() int64 {
	var max int64
	for i := range s.shards {
		if l := s.shards[i].load.Load(); l > max {
			max = l
		}
	}
	return max
}

// ResetLoads zeroes the per-shard counters (between rounds or experiments).
func (s *Store) ResetLoads() {
	for i := range s.shards {
		s.shards[i].load.Store(0)
	}
}

// ShardSizes returns the number of pairs resident on each shard, validating
// the storage side of the balls-in-bins placement.
func (s *Store) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i := range s.shards {
		sizes[i] = s.shards[i].size
	}
	return sizes
}
