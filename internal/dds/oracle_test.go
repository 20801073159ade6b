package dds

import (
	"testing"
	"unsafe"
)

// oracleStore is the reference freeze the property tests hold the builder
// to: the counting build the store engine used before freezes went in place.
// It hashes every pair to count per-shard sizes, prefix-sums them, hashes
// every pair again to scatter it into a contiguous per-shard region in input
// order, then builds each shard's index in two passes — insert keys and
// count duplicates, then place values with a per-slot cursor, the first
// inline and the rest appended to the slab in input order. It shares nothing
// with the freeze but the slot-table probe start and the bitmap.
func oracleStore(pairs []KV, p int, salt uint64) *Store {
	if p <= 0 {
		p = 1
	}
	s := &Store{shards: make([]shard, p), salt: salt, pairs: len(pairs), div: newDivisor(uint64(p))}
	starts := make([]int, p+1)
	for _, kv := range pairs {
		starts[s.div.mod(hash(kv.Key, salt))+1]++
	}
	for si := 0; si < p; si++ {
		starts[si+1] += starts[si]
	}
	region := make([]KV, len(pairs))
	hs := make([]uint64, len(pairs))
	cur := append([]int(nil), starts[:p]...)
	for _, kv := range pairs {
		h := hash(kv.Key, salt)
		si := s.div.mod(h)
		region[cur[si]], hs[cur[si]] = kv, h
		cur[si]++
	}
	for si := 0; si < p; si++ {
		lo, hi := starts[si], starts[si+1]
		oracleShard(&s.shards[si], region[lo:hi], hs[lo:hi])
	}
	return s
}

// oracleShard builds one shard's flat index over its ordered pairs.
func oracleShard(sh *shard, pairs []KV, hs []uint64) {
	sh.size = len(pairs)
	if len(pairs) == 0 {
		return
	}
	n := 1
	for n < 2*len(pairs) {
		n <<= 1
	}
	sh.slots, sh.bits = make([]slot, n), make([]uint64, bitWords(n))
	sh.mask = uint64(n - 1)
	slotIdx := make([]uint64, len(pairs))
	for i, kv := range pairs {
		j := (hs[i] >> 32) & sh.mask
		for sh.occupied(j) && sh.slots[j].key != kv.Key {
			j = (j + 1) & sh.mask
		}
		if !sh.occupied(j) {
			sh.claim(j)
			sh.slots[j] = slot{key: kv.Key}
		}
		sh.slots[j].count++
		slotIdx[i] = j
	}
	overflow := int32(0)
	sh.forOccupied(func(j int) {
		if sh.slots[j].count > 1 {
			sh.slots[j].off = overflow
			overflow += sh.slots[j].count - 1
		}
	})
	if overflow > 0 {
		sh.slab = make([]Value, overflow)
	}
	fill := make([]int32, n)
	for i, kv := range pairs {
		j := slotIdx[i]
		if fill[j] == 0 {
			sh.slots[j].first = kv.Value
		} else {
			sh.slab[sh.slots[j].off+fill[j]-1] = kv.Value
		}
		fill[j]++
	}
}

// freezePairs freezes pairs through a primed builder, spread over machines
// writers in input order, with the given insert-task count, scheduler and
// arena — every knob of the freeze's execution shape, none of which may
// change the store.
func freezePairs(pairs []KV, machines, p int, salt uint64, workers int, run Parallel, a *Arena) *Store {
	b := NewBuilder(machines)
	b.SetParallel(run)
	b.Prime(p, salt)
	per := (len(pairs) + machines - 1) / machines
	for m := 0; m < machines; m++ {
		lo := min(m*per, len(pairs))
		b.Writer(m).WriteMany(pairs[lo:min(lo+per, len(pairs))])
	}
	ws := b.allWriters()
	return b.freeze(a, nil, ws, len(pairs), workers)
}

// TestSlotIs48Bytes pins the slot record: key, first value, count and slab
// offset, with no build-time field padding it out.
func TestSlotIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 48 {
		t.Fatalf("slot is %d bytes, want 48", got)
	}
}
