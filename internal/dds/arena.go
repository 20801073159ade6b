package dds

import (
	"math/bits"
	"sync"
)

// Arena recycles the allocations of retired stores into the next freeze.
// In the AMPC model the writes of round i-1 form D_{i-1}, which only round
// i reads, so D_{i-1} is dead once round i's machines finish: the runtime
// retires it then, before D_i freezes, and its slot arrays and overflow
// slabs become the raw material for D_i instead of garbage. A round holds
// one generation of tables — the one being read, then the one being built
// in its arrays — plus its writes. The freeze inserts pairs straight into
// them and keeps no scratch of its own. A grab takes the smallest retired
// array with room for the request, so a store that shrinks between rounds
// (a contraction halving its tables) reuses its larger predecessor instead
// of allocating: a freeze allocates fresh arrays only when a shard needs
// more room than the retired generation has — the first freeze of a run,
// and a store that outgrows the one before it.
//
// All methods are safe for concurrent use: a freeze's tasks grab tables and
// slabs from the arena in parallel. A nil *Arena is valid everywhere and
// means "allocate fresh" — callers never need to guard.
type Arena struct {
	mu sync.Mutex
	// tables and slabs hold retired slot tables and overflow slabs filed
	// by capacity class: bucket b holds those with room for at least 2^b
	// and fewer than 2^(b+1) entries (see take).
	tables [64][]table
	slabs  [64][][]Value
}

// table pairs a slot array with its occupancy bitmap; they are always
// recycled and grabbed together.
type table struct {
	slots []slot
	bits  []uint64
}

// room is the largest table the pair can be resliced to: both the slot
// array and the bitmap must cover it.
func (t table) room() int { return min(cap(t.slots), 64*cap(t.bits)) }

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle moves the store's shard allocations into the arena and detaches
// them from s, so a later read through the retired store fails loudly
// instead of returning bytes now owned by a newer generation. The caller
// must guarantee no reader still holds s. Safe on a nil arena or store
// (no-op).
//
// The arena retains at most one retired generation: whatever the previous
// Recycle left that the builds in between did not grab is dropped to the
// garbage collector first. In the runtime's steady state the next freeze
// grabs the whole generation, so the arena holds nothing between rounds;
// the drop bounds its footprint for callers whose build and retire rates
// diverge (repeated SetInput, shrinking stores).
func (a *Arena) Recycle(s *Store) {
	if a == nil || s == nil || s.shards == nil {
		return
	}
	a.mu.Lock()
	// Clear before truncating: a bucket's backing array would otherwise
	// keep the dropped arrays reachable.
	for i := range a.tables {
		clear(a.tables[i])
		clear(a.slabs[i])
		a.tables[i], a.slabs[i] = a.tables[i][:0], a.slabs[i][:0]
	}
	for i := range s.shards {
		sh := &s.shards[i]
		// File by capacity, not length: a table grabbed for a smaller
		// store keeps the room of the one it was cut from.
		if t := (table{slots: sh.slots[:0], bits: sh.bits[:0]}); t.room() > 0 {
			file(&a.tables, t, t.room())
		}
		if cap(sh.slab) > 0 {
			file(&a.slabs, sh.slab[:0], cap(sh.slab))
		}
		sh.slots, sh.bits, sh.slab = nil, nil, nil
	}
	a.mu.Unlock()
	s.shards = nil
}

// file adds x, with room for room > 0 entries, to its capacity class.
func file[T any](buckets *[64][]T, x T, room int) {
	b := bits.Len(uint(room)) - 1
	buckets[b] = append(buckets[b], x)
}

// take removes and returns the smallest filed entry with room for n > 0
// entries, or reports false when none has. It scans up from n's own class:
// that class may hold entries too small for n, and the first class holding
// one that fits holds the smallest. Within a class the scan stops at an
// entry no other can undercut — room n, or the class floor — so a pool of
// equal-room tables costs one look per grab.
func take[T any](buckets *[64][]T, n int, room func(T) int) (T, bool) {
	var none T
	for b := bits.Len(uint(n)) - 1; b < len(buckets); b++ {
		bucket := buckets[b]
		floor, best, bestRoom := max(n, 1<<b), -1, 0
		for i := len(bucket) - 1; i >= 0; i-- {
			if r := room(bucket[i]); r >= n && (best < 0 || r < bestRoom) {
				best, bestRoom = i, r
				if r == floor {
					break
				}
			}
		}
		if best >= 0 {
			x, last := bucket[best], len(bucket)-1
			bucket[best] = bucket[last]
			bucket[last] = none // the arena keeps no reference to what it hands out
			buckets[b] = bucket[:last]
			return x, true
		}
	}
	return none, false
}

// bitWords returns the occupancy-bitmap length for an n-slot table.
func bitWords(n int) int { return (n + 63) / 64 }

// grabTable returns a slot table of exactly n entries (n must be a power of
// two) with an all-clear occupancy bitmap: the smallest retired table with
// room for n, resliced to n, else a fresh one, and the bytes it allocated.
// Only the bitmap words n uses are zeroed — 1/160th of the slot bytes —
// because slot records are fully written at claim time and serialization
// consults the bitmap for empties; stale slots and bitmap words past n are
// outside the returned slices. Clearing and fresh allocation happen outside
// the lock: the freeze's tasks grab their shards' tables concurrently and
// must not serialize behind each other.
func (a *Arena) grabTable(n int) ([]slot, []uint64, int64) {
	if a != nil {
		a.mu.Lock()
		t, ok := take(&a.tables, n, table.room)
		a.mu.Unlock()
		if ok {
			t.slots, t.bits = t.slots[:n], t.bits[:bitWords(n)]
			clear(t.bits)
			return t.slots, t.bits, 0
		}
	}
	return make([]slot, n), make([]uint64, bitWords(n)), int64(n)*recordBytes + int64(bitWords(n))*8
}

// grabSlab returns a value slab of n entries — the smallest retired slab
// with room for n, else a fresh one — and the bytes it allocated. The slab
// is not zeroed: every entry is overwritten by the freeze's placement pass.
func (a *Arena) grabSlab(n int) ([]Value, int64) {
	if a != nil && n > 0 {
		a.mu.Lock()
		sl, ok := take(&a.slabs, n, func(sl []Value) int { return cap(sl) })
		a.mu.Unlock()
		if ok {
			return sl[:n], 0
		}
	}
	return make([]Value, n), int64(n) * 16 // two int64 words per Value
}
