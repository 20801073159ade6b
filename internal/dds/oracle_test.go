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
	free := uint64(0)
	sh.forOccupied(func(j int) {
		sh.set(uint64(j), keys[j], firsts[j])
		if counts[j] > 1 {
			free = sh.dupe(uint64(j), free, counts[j], offs[j])
		}
	})
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

// The raw block is the reference form the tests derive packed sections
// from: a section's 64-byte header, then every slot as a 48-byte record with
// full 64-bit words — unclaimed slots all-zero — then every slab value as a
// 16-byte record, the checksum folded over those words. It is what value 0
// of a segment table's encoding byte named before packing became the only
// encoding; readers refuse it.
//
//	slot record, 48 bytes
//	  [0:8)    key.A, int64     [8:16)   key.B, int64
//	  [16:24)  first.A, int64   [24:32)  first.B, int64
//	  [32:36)  count, int32     [36:40)  slab offset, int32
//	  [40]     key.Tag          [41:48)  reserved, zero
//
//	value record, 16 bytes: A int64, B int64
const (
	slotBytes  = 48
	valueBytes = 16
)

// rawBlock returns shard sh, as shard index of count under salt, as a raw
// block. It shares nothing with packShard but the header layout.
func rawBlock(sh *shard, index, count int, salt uint64) []byte {
	dst := make([]byte, headerBytes+len(sh.slots)*slotBytes+len(sh.slab)*valueBytes)
	for i := range sh.slots {
		if !sh.occupied(uint64(i)) {
			continue
		}
		rec := dst[headerBytes+i*slotBytes:]
		sl := &sh.slots[i]
		k, v := sh.key(sl), sh.first(sl)
		le.PutUint64(rec[0:], uint64(k.A))
		le.PutUint64(rec[8:], uint64(k.B))
		le.PutUint64(rec[16:], uint64(v.A))
		le.PutUint64(rec[24:], uint64(v.B))
		le.PutUint32(rec[32:], uint32(sh.count(sl)))
		if sh.count(sl) > 1 {
			le.PutUint32(rec[36:], uint32(sh.off(sl)))
		}
		rec[40] = k.Tag
	}
	for i, v := range sh.slab {
		rec := dst[headerBytes+len(sh.slots)*slotBytes+i*valueBytes:]
		le.PutUint64(rec[0:], uint64(v.A))
		le.PutUint64(rec[8:], uint64(v.B))
	}
	h := dst[:headerBytes]
	copy(h[0:8], shardMagic)
	le.PutUint32(h[8:], shardVersion)
	le.PutUint32(h[12:], uint32(index))
	le.PutUint32(h[16:], uint32(count))
	le.PutUint64(h[24:], salt)
	le.PutUint64(h[32:], uint64(sh.size))
	le.PutUint64(h[40:], uint64(len(sh.slots)))
	le.PutUint64(h[48:], uint64(len(sh.slab)))
	le.PutUint64(h[56:], checksum(h[0:56], dst[headerBytes:]))
	return dst
}

// rawSegment is s as a v3 segment whose sections are raw blocks under
// encoding byte 0 — the form AppendSegment produced before packing became
// the only encoding. Readers refuse it with ErrBadVersion.
func rawSegment(s *Store) []byte {
	p := len(s.shards)
	seg, _ := layoutSegment(s) // its table, size and checksum are rewritten
	for i := range s.shards {
		block := rawBlock(&s.shards[i], i, p, s.salt)
		e := seg[headerBytes+i*segTableEntry:]
		le.PutUint64(e[0:], uint64(len(seg)))
		le.PutUint64(e[8:], uint64(len(block)))
		e[16] = 0
		seg = append(seg, block...)
	}
	le.PutUint64(seg[32:], uint64(len(seg)))
	le.PutUint64(seg[56:], checksum(seg[0:56], seg[headerBytes:headerBytes+p*segTableEntry]))
	return seg
}

// packRawBlock is the reference packer: the section format (see packShard)
// of a raw block, appended to dst. A record with a non-zero count is an
// occupied slot, and its flags follow from its words and count alone: a
// word pair outside int32 travels inline after the record, a count other
// than 1 travels with its slab offset.
func packRawBlock(dst, raw []byte) []byte {
	base := len(dst)
	dst = append(dst, raw[:headerBytes]...)
	slotCount := int(le.Uint64(raw[40:48]))
	slots := raw[headerBytes : headerBytes+slotCount*slotBytes]
	bitmap := make([]uint64, (slotCount+63)/64)
	for i := 0; i < slotCount; i++ {
		if le.Uint32(slots[i*slotBytes+32:]) != 0 {
			bitmap[i/64] |= 1 << (i % 64)
		}
	}
	for _, w := range bitmap {
		dst = le.AppendUint64(dst, w)
	}
	for i := 0; i < slotCount; i++ {
		rec := slots[i*slotBytes : i*slotBytes+slotBytes]
		if le.Uint32(rec[32:]) == 0 {
			continue
		}
		var out [recordBytes]byte
		var tail []byte
		out[0] = rec[40]
		if le.Uint32(rec[32:]) != 1 {
			out[1] |= 4
			tail = append(tail, rec[32:40]...)
		}
		for w, flag := range []byte{1, 2} { // key words, then first-value words
			a, b := rec[16*w:16*w+8], rec[16*w+8:16*w+16]
			if narrow(int64(le.Uint64(a)), int64(le.Uint64(b))) {
				copy(out[4+8*w:], a[:4])
				copy(out[8+8*w:], b[:4])
				continue
			}
			out[1] |= flag
			tail = append(tail, rec[16*w:16*w+16]...)
		}
		// The tail holds count and offset, then the wide key, then the wide
		// value: the order the loop above appended them in.
		dst = append(append(dst, out[:]...), tail...)
	}
	dst = append(dst, raw[headerBytes+slotCount*slotBytes:]...) // slab values: the same 16-byte records
	le.PutUint64(dst[base+56:], checksum(dst[base:base+56], dst[base+headerBytes:]))
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
	return b.freeze(a, ws, len(pairs), workers)
}

// TestRecordSizes pins the narrow records: a 20-byte slot (tag, flags,
// int32 key and first-value words), a section record's size, and a 24-byte
// writer entry (high hash bits, tag, wide flag, int32 words), with no field
// padding them out.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != recordBytes {
		t.Fatalf("slot is %d bytes, want %d", got, recordBytes)
	}
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24", got)
	}
}
