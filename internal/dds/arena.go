package dds

import (
	"math/bits"
	"sync"
)

// Arena recycles the allocations of retired stores into the next freeze.
// The AMPC round loop keeps two store generations alive — D_{i-1} being
// read and D_i being built — so the natural steady state is double
// buffering: when generation i-2 retires, its slot arrays and overflow
// slabs become the raw material for generation i instead of garbage. The
// freeze inserts pairs straight into them and keeps no scratch of its own.
// Store shapes are stable across rounds (the shard count is fixed and slot
// arrays are powers of two), so after the first couple of rounds a freeze
// allocates almost nothing.
//
// All methods are safe for concurrent use: a freeze's tasks grab tables and
// slabs from the arena in parallel. A nil *Arena is valid everywhere and
// means "allocate fresh" — callers never need to guard.
type Arena struct {
	mu sync.Mutex
	// tables holds retired slot tables (slot array + occupancy bitmap)
	// bucketed by log2(capacity); every slot array is allocated with a
	// power-of-two length, so a bucket holds tables of exactly one capacity
	// and a table grab is an exact-fit pop.
	tables [64][]table
	// slabs holds retired overflow slabs, any capacity, first-fit.
	slabs [][]Value
}

// table pairs a slot array with its occupancy bitmap; they are always
// recycled and grabbed together.
type table struct {
	slots []slot
	bits  []uint64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle moves the store's shard allocations into the arena and detaches
// them from s, so a later read through the retired store fails loudly
// instead of returning bytes now owned by a newer generation. The caller
// must guarantee no reader still holds s. Safe on a nil arena or store
// (no-op).
//
// The arena retains exactly one retired generation: whatever the previous
// Recycle left that the builds in between did not grab is dropped to the
// garbage collector first. That is the double-buffering steady state — one
// generation being read, one being built, one generation of spare arrays —
// and it bounds the arena's footprint for callers whose build and retire
// rates diverge (repeated SetInput, shrinking stores).
func (a *Arena) Recycle(s *Store) {
	if a == nil || s == nil || s.shards == nil {
		return
	}
	a.mu.Lock()
	for i := range a.tables {
		a.tables[i] = a.tables[i][:0]
	}
	a.slabs = a.slabs[:0]
	for i := range s.shards {
		sh := &s.shards[i]
		// Bucket by the array's length — always the power of two the build
		// asked for — not its capacity, which make may have rounded up.
		if n := len(sh.slots); n > 0 {
			b := bits.TrailingZeros(uint(n))
			a.tables[b] = append(a.tables[b], table{slots: sh.slots[:0], bits: sh.bits[:0]})
		}
		if cap(sh.slab) > 0 {
			a.slabs = append(a.slabs, sh.slab[:0])
		}
		sh.slots, sh.bits, sh.slab = nil, nil, nil
	}
	a.mu.Unlock()
	s.shards = nil
}

// bitWords returns the occupancy-bitmap length for an n-slot table.
func bitWords(n int) int { return (n + 63) / 64 }

// grabTable returns a slot table of exactly n entries (n must be a power of
// two) with an all-clear occupancy bitmap, recycled when one of that
// capacity is available. Only the bitmap is zeroed — 1/224th of the slot
// bytes — because slot records are fully written at claim time and
// serialization consults the bitmap for empties. Clearing and fresh
// allocation happen outside the lock: the freeze's tasks grab their shards'
// tables concurrently and must not serialize behind each other.
func (a *Arena) grabTable(n int) ([]slot, []uint64) {
	if a != nil {
		b := bits.TrailingZeros(uint(n))
		a.mu.Lock()
		if k := len(a.tables[b]); k > 0 {
			t := a.tables[b][k-1]
			a.tables[b] = a.tables[b][:k-1]
			a.mu.Unlock()
			t.slots, t.bits = t.slots[:n], t.bits[:bitWords(n)]
			clear(t.bits)
			return t.slots, t.bits
		}
		a.mu.Unlock()
	}
	return make([]slot, n), make([]uint64, bitWords(n))
}

// grabSlab returns a value slab of n entries, recycled first-fit. The slab
// is not zeroed: every entry is overwritten by the freeze's placement pass.
func (a *Arena) grabSlab(n int) []Value {
	if a == nil || n <= 0 {
		return make([]Value, n)
	}
	a.mu.Lock()
	for i, sl := range a.slabs {
		if cap(sl) >= n {
			last := len(a.slabs) - 1
			a.slabs[i] = a.slabs[last]
			a.slabs = a.slabs[:last]
			a.mu.Unlock()
			return sl[:n]
		}
	}
	a.mu.Unlock()
	return make([]Value, n)
}
