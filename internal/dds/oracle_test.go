package dds

import (
	"encoding/binary"
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

// oracleShard builds one shard's flat index over its ordered pairs, keeping
// each slot's key, count, offset and first value aside and writing the slot
// once at the end.
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
	keys, firsts := make([]Key, n), make([]Value, n)
	counts, offs := make([]int32, n), make([]int32, n)
	slotIdx := make([]uint64, len(pairs))
	for i, kv := range pairs {
		j := (hs[i] >> 32) & sh.mask
		for sh.occupied(j) && keys[j] != kv.Key {
			j = (j + 1) & sh.mask
		}
		if !sh.occupied(j) {
			sh.claim(j)
			keys[j] = kv.Key
		}
		counts[j]++
		slotIdx[i] = j
	}
	overflow := int32(0)
	sh.forOccupied(func(j int) {
		if counts[j] > 1 {
			offs[j] = overflow
			overflow += counts[j] - 1
		}
	})
	if overflow > 0 {
		sh.slab = make([]Value, overflow)
	}
	fill := make([]int32, n)
	for i, kv := range pairs {
		j := slotIdx[i]
		if fill[j] == 0 {
			firsts[j] = kv.Value
		} else {
			sh.slab[offs[j]+fill[j]-1] = kv.Value
		}
		fill[j]++
	}
	sh.forOccupied(func(j int) { sh.set(uint64(j), keys[j], firsts[j], counts[j], offs[j]) })
}

// pairsOf returns every pair b's writers buffer, merged in machine-id order.
func pairsOf(b *Builder) []KV {
	var out []KV
	for _, w := range b.writers {
		for _, e := range w.ents {
			kv := KV{Key{Tag: e.tag, A: int64(e.ka), B: int64(e.kb)}, Value{A: int64(e.va), B: int64(e.vb)}}
			if e.wide {
				kv = w.wide[e.ka]
			}
			out = append(out, kv)
		}
	}
	return out
}

// packRawBlock is the reference packer: the packed form (see packShard) of
// a materialized raw v1 shard block, appended to dst.
func packRawBlock(dst, raw []byte) []byte {
	base := len(dst)
	dst = append(dst, raw[:headerBytes]...)
	slotCount := int(le.Uint64(raw[40:48]))
	slots := raw[headerBytes : headerBytes+slotCount*slotBytes]
	occ := 0
	for i := 0; i < slotCount; i++ {
		if le.Uint32(slots[i*slotBytes+32:]) != 0 {
			occ++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(occ))
	prev := -1
	for i := 0; i < slotCount; i++ {
		rec := slots[i*slotBytes : i*slotBytes+slotBytes]
		if le.Uint32(rec[32:]) == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev-1))
		prev = i
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(rec[0:]))))
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(rec[8:]))))
		dst = append(dst, rec[40])
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(rec[16:]))))
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(rec[24:]))))
		dst = binary.AppendUvarint(dst, uint64(le.Uint32(rec[32:])))
		dst = binary.AppendUvarint(dst, uint64(le.Uint32(rec[36:])))
	}
	for off := headerBytes + slotCount*slotBytes; off < len(raw); off += valueBytes {
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(raw[off:]))))
		dst = binary.AppendUvarint(dst, zigzag(int64(le.Uint64(raw[off+8:]))))
	}
	le.PutUint64(dst[base+56:], checksumPacked(dst[base:base+56], dst[base+headerBytes:]))
	return dst
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

// TestRecordSizes pins the narrow records: a 28-byte slot (tag, flags,
// int32 key and first-value words, count, slab offset) and a 24-byte writer
// entry (high hash bits, tag, wide flag, int32 words), with no field
// padding them out.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 28 {
		t.Fatalf("slot is %d bytes, want 28", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24", got)
	}
}
