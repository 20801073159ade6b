package dds

import (
	"fmt"
	"math/bits"
	"slices"
)

// Section format (version 2).
//
// One shard of a frozen store serializes as a section: its flat index — the
// same open-addressing slot positions and overflow slab the in-memory engine
// probes — as a 64-byte header and a fixed-width payload that mirrors the
// in-memory slot, so a reader decodes it by copying the bitmap and loading
// each record at fixed offsets into a shard whose probes take the writer's
// exact path. A segment file (segment.go) is a table of sections, and an
// rpc put carries them one by one.
//
//	header   64 bytes
//	  [0:8)    magic "AMPCSHRD"
//	  [8:12)   format version, uint32 (currently 2)
//	  [12:16)  shard index, uint32
//	  [16:20)  shard count, uint32
//	  [20:24)  reserved, zero
//	  [24:32)  placement salt, uint64
//	  [32:40)  pairs resident on this shard, uint64
//	  [40:48)  slot count, uint64: the next power of two >= 2 * pairs, or 0
//	  [48:56)  slab value count, uint64
//	  [56:64)  checksum, uint64 over header[0:56] ++ payload, the payload's
//	           final partial word zero-padded
//	payload  (integers little-endian)
//	  occupancy bitmap, one uint64 word per 64 slots; bit i marks slot i
//	  per occupied slot, ascending slot index, a 20-byte record:
//	    [0]      key tag
//	    [1:4)    flags, 24 bits: 1 wide key, 2 wide first value,
//	             4 duplicated key; any other bit is refused
//	    [4:12)   key.A, key.B, int32 (zero when the key is wide)
//	    [12:20)  first.A, first.B, int32 (zero when the value is wide)
//	    then, flag 4 only: count int32 (>= 2), slab offset int32
//	    then, flag 1 only: key.A, key.B, int64
//	    then, flag 2 only: first.A, first.B, int64
//	  per slab value: A int64, B int64
//
// Every key keeps its first value in its slot and the rest in the slab, so
// the occupied slot count is pairs - slab values: the bitmap's popcount
// must equal it. The bytes depend only on the logical table — wide words
// travel inline in slot order, never as the indices a slot holds — so one
// store always encodes to the same section.
//
// Versioning rules: the magic never changes; any layout change bumps the
// version, and readers reject versions they do not know with ErrBadVersion
// (version 1 was a varint payload). Reserved bytes are written as zero and
// ignored on read, so they are available to future versions only behind a
// version bump.
const (
	shardMagic    = "AMPCSHRD"
	shardVersion  = 2
	headerBytes   = 64
	recordBytes   = 20
	checksumSeed  = 0x9e3779b97f4a7c15
	maxShardFiles = 1 << 20 // sanity cap on the shard count read from a header
)

// extBytes is the record tail each valid flag combination appends.
var extBytes = [2 * dupKey]int{0, 16, 16, 32, 8, 24, 24, 40}

// encSection is the encoding byte a segment's section table and an rpc put
// carry for every section. It is the only encoding — the section's own
// header versions its layout — and readers refuse any other value with
// ErrBadVersion. (Value 0 named the 48-byte-record block earlier writers
// emitted for empty shards.)
const encSection byte = 1

// tableSlots is the slot count a freeze gives a shard of n pairs: the next
// power of two >= 2n, so the table is at most half full, or 0 when empty.
func tableSlots(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len64(2*n-1)
}

// sectionBytes is the length of sh's section, known from the shard's counts
// before a byte is packed: the header, the bitmap words, a record per
// occupied slot with its duplicated and wide extras, and the slab.
func sectionBytes(sh *shard) int {
	occ := sh.size - len(sh.slab)
	return headerBytes + 8*len(sh.bits) + recordBytes*occ + 8*sh.dups + 16*(len(sh.wkeys)+len(sh.wvals)+len(sh.slab))
}

// packShard appends shard sh, as shard index of count under salt, to dst in
// the section format: the bitmap words as they are, then one record per
// occupied slot written straight from the slot, then the slab, and the
// checksum folded over the bytes just written. dst grows once, exactly, so a
// section laid out in place never moves. The tests hold it to an independent
// reference packer.
func packShard(dst []byte, sh *shard, index, count int, salt uint64) []byte {
	base := len(dst)
	dst = slices.Grow(dst, sectionBytes(sh))
	dst = dst[:base+headerBytes]
	h := dst[base:]
	clear(h)
	copy(h[0:8], shardMagic)
	le.PutUint32(h[8:], shardVersion)
	le.PutUint32(h[12:], uint32(index))
	le.PutUint32(h[16:], uint32(count))
	le.PutUint64(h[24:], salt)
	le.PutUint64(h[32:], uint64(sh.size))
	le.PutUint64(h[40:], uint64(len(sh.slots)))
	le.PutUint64(h[48:], uint64(len(sh.slab)))
	for _, w := range sh.bits {
		dst = le.AppendUint64(dst, w)
	}
	for wi, word := range sh.bits {
		for ; word != 0; word &= word - 1 {
			sl := &sh.slots[wi<<6|bits.TrailingZeros64(word)]
			var rec [recordBytes]byte
			le.PutUint32(rec[0:], uint32(sl.tag)|uint32(sl.flags)<<8)
			if sl.flags&wideKey == 0 {
				le.PutUint32(rec[4:], uint32(sl.ka))
				le.PutUint32(rec[8:], uint32(sl.kb))
			}
			if sl.flags&wideVal == 0 {
				v := sh.first(sl)
				le.PutUint32(rec[12:], uint32(v.A))
				le.PutUint32(rec[16:], uint32(v.B))
			}
			dst = append(dst, rec[:]...)
			if sl.flags&dupKey != 0 {
				dst = le.AppendUint32(le.AppendUint32(dst, uint32(sh.count(sl))), uint32(sh.off(sl)))
			}
			if sl.flags&wideKey != 0 {
				k := sh.key(sl)
				dst = le.AppendUint64(le.AppendUint64(dst, uint64(k.A)), uint64(k.B))
			}
			if sl.flags&wideVal != 0 {
				v := sh.first(sl)
				dst = le.AppendUint64(le.AppendUint64(dst, uint64(v.A)), uint64(v.B))
			}
		}
	}
	for _, v := range sh.slab {
		dst = le.AppendUint64(le.AppendUint64(dst, uint64(v.A)), uint64(v.B))
	}
	le.PutUint64(dst[base+56:], checksum(dst[base:base+56], dst[base+headerBytes:]))
	return dst
}

// blockHeader is what the decoder keeps of a section's 64-byte header.
type blockHeader struct {
	count       int    // shards in the store
	salt        uint64 // placement salt
	size        uint64 // pairs resident on this shard
	slots, slab uint64 // slot count, slab value count
}

// openSection decodes one section of encoding enc into sh as shard index —
// the one section decoder behind OpenSegment and the shard server's
// OpenSection. An encoding byte other than encSection is refused with
// ErrBadVersion. The header fields that need nothing else — version, shard
// index and count — are checked first, then the checksum over the bytes
// received, then the declared sizes against the section itself, before
// anything is allocated: the slot count must be the one a freeze picks for
// the pair count, and every pair costs at least 16 payload bytes (a slab
// value; a record is 20), so a forged header can demand at most a constant
// multiple of its own length. The bitmap is copied and its popcount checked
// against the occupied count, each record fills its slot, and the slab
// copies in.
//
// A checksum only proves the bytes match what some writer computed — not
// that the writer was honest — so reads are made safe here too: every
// duplicated slot's slab window must lie inside the slab, and the counts
// must sum to the declared pair count. The table is at most half full, so an
// absent key's probe meets an empty slot and every entry finds one.
func openSection(sh *shard, data []byte, enc byte, index int, path string) (blockHeader, error) {
	if enc != encSection {
		return blockHeader{}, fmt.Errorf("%w: %s: section encoding %d, reader implements %d", ErrBadVersion, path, enc, encSection)
	}
	if len(data) < headerBytes {
		return blockHeader{}, fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrTruncated, path, len(data), headerBytes)
	}
	if string(data[0:8]) != shardMagic {
		return blockHeader{}, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	h, p := data[:headerBytes], data[headerBytes:]
	hdr := blockHeader{
		count: int(le.Uint32(h[16:])),
		salt:  le.Uint64(h[24:]),
		size:  le.Uint64(h[32:]),
		slots: le.Uint64(h[40:]),
		slab:  le.Uint64(h[48:]),
	}
	if v := le.Uint32(h[8:]); v != shardVersion {
		return hdr, fmt.Errorf("%w: %s: version %d, reader implements %d", ErrBadVersion, path, v, shardVersion)
	}
	// Readers route by hash % count, so a zero count would divide by zero
	// on the first read, and a shard outside its own store is never
	// addressed.
	if got := int(le.Uint32(h[12:])); got != index {
		return hdr, fmt.Errorf("%w: %s: header says shard %d", ErrBadGeometry, path, got)
	}
	if hdr.count == 0 || hdr.count > maxShardFiles || index >= hdr.count {
		return hdr, fmt.Errorf("%w: %s: shard %d of a %d-shard store", ErrBadGeometry, path, index, hdr.count)
	}
	if sum := checksum(h[:56], p); sum != le.Uint64(h[56:]) {
		return hdr, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	if want := tableSlots(hdr.size); hdr.slots != want {
		return hdr, fmt.Errorf("%w: %s: %d slots for %d pairs, a freeze picks %d",
			ErrBadGeometry, path, hdr.slots, hdr.size, want)
	}
	if room := uint64(len(p)) / 16; hdr.size > room || hdr.slab > room {
		return hdr, fmt.Errorf("%w: %s: %d payload bytes, header declares %d pairs and %d slab values",
			ErrTruncated, path, len(p), hdr.size, hdr.slab)
	}
	if hdr.slab > hdr.size {
		return hdr, fmt.Errorf("%w: %s: %d slab values for %d pairs", ErrBadGeometry, path, hdr.slab, hdr.size)
	}
	// The room check leaves the bitmap in bounds: slots <= 4 * pairs.
	sh.alloc(hdr.slots, hdr.slab)
	occ := 0
	for i := range sh.bits {
		sh.bits[i] = le.Uint64(p[8*i:])
		occ += bits.OnesCount64(sh.bits[i])
	}
	p = p[8*len(sh.bits):]
	// Slot counts are powers of two, so only a table under 64 slots has
	// bits past its end; a shift by 64 or more is 0.
	if len(sh.bits) > 0 && sh.bits[0]>>hdr.slots != 0 {
		return hdr, fmt.Errorf("%w: %s: occupancy bit past slot %d", ErrBadGeometry, path, hdr.slots)
	}
	if uint64(occ) != hdr.size-hdr.slab {
		return hdr, fmt.Errorf("%w: %s: %d occupied slots, header declares %d pairs and %d slab values",
			ErrBadGeometry, path, occ, hdr.size, hdr.slab)
	}
	dups, free := uint64(0), uint64(0) // slab values the records claim; dupe's cursor
	for wi, word := range sh.bits {
		for ; word != 0; word &= word - 1 {
			i := uint64(wi<<6 | bits.TrailingZeros64(word))
			if len(p) < recordBytes {
				return hdr, fmt.Errorf("%w: %s: record of slot %d cut short", ErrTruncated, path, i)
			}
			head := le.Uint32(p[0:4])
			sl := slot{tag: uint8(head), flags: uint8(head >> 8), ka: int32(le.Uint32(p[4:])), kb: int32(le.Uint32(p[8:])),
				va: int32(le.Uint32(p[12:])), vb: int32(le.Uint32(p[16:20]))}
			p = p[recordBytes:]
			if head>>8 == 0 {
				sh.slots[i] = sl
				continue
			}
			if f := head >> 8; f >= uint32(2*dupKey) {
				return hdr, fmt.Errorf("%w: %s: slot %d has unknown flags %#x", ErrBadGeometry, path, i, f)
			}
			if len(p) < extBytes[sl.flags] {
				return hdr, fmt.Errorf("%w: %s: wide or duplicated record of slot %d cut short", ErrTruncated, path, i)
			}
			k := Key{Tag: sl.tag, A: int64(sl.ka), B: int64(sl.kb)}
			v := Value{A: int64(sl.va), B: int64(sl.vb)}
			count, off := int32(1), int32(0)
			if sl.flags&dupKey != 0 {
				count, off, p = int32(le.Uint32(p)), int32(le.Uint32(p[4:])), p[8:]
				if count < 2 || off < 0 || uint64(off)+uint64(count-1) > hdr.slab {
					return hdr, fmt.Errorf("%w: %s: slot %d count %d, slab window [%d, %d) outside slab of %d values",
						ErrBadGeometry, path, i, count, off, int64(off)+int64(count)-1, hdr.slab)
				}
				dups += uint64(count - 1)
			}
			if sl.flags&wideKey != 0 {
				k.A, k.B, p = int64(le.Uint64(p)), int64(le.Uint64(p[8:])), p[16:]
			}
			if sl.flags&wideVal != 0 {
				v.A, v.B, p = int64(le.Uint64(p)), int64(le.Uint64(p[8:])), p[16:]
			}
			sh.set(i, k, v)
			if count > 1 {
				free = sh.dupe(i, free, count, off)
			}
		}
	}
	if dups != hdr.slab {
		return hdr, fmt.Errorf("%w: %s: slot counts sum to %d, header declares %d pairs",
			ErrBadGeometry, path, uint64(occ)+dups, hdr.size)
	}
	if want := 16 * hdr.slab; uint64(len(p)) < want {
		return hdr, fmt.Errorf("%w: %s: %d bytes left for %d slab values", ErrTruncated, path, len(p), hdr.slab)
	} else if uint64(len(p)) > want {
		return hdr, fmt.Errorf("%w: %s: %d trailing bytes", ErrBadGeometry, path, uint64(len(p))-want)
	}
	for i := range sh.slab {
		sh.slab[i] = Value{A: int64(le.Uint64(p[16*i:])), B: int64(le.Uint64(p[16*i+8:]))}
	}
	sh.size = int(hdr.size)
	return hdr, nil
}

// alloc gives sh an all-clear table of slots entries and a slab of slab
// values for the decoder to fill.
func (sh *shard) alloc(slots, slab uint64) {
	sh.slots = make([]slot, slots)
	sh.bits = make([]uint64, bitWords(int(slots)))
	sh.slab = make([]Value, slab)
	sh.mask = max(slots, 1) - 1
}
