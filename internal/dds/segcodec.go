package dds

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Section format (version 1).
//
// One shard of a frozen store serializes as a section: its flat index — the
// same open-addressing slot positions and overflow slab the in-memory engine
// probes — as a 64-byte header and a varint payload, so a reader decodes it
// back into a shard whose probes take the writer's exact path. A segment
// file (segment.go) is a table of sections, and an rpc put carries them one
// by one.
//
//	header   64 bytes
//	  [0:8)    magic "AMPCSHRD"
//	  [8:12)   format version, uint32 (currently 1)
//	  [12:16)  shard index, uint32
//	  [16:20)  shard count, uint32
//	  [20:24)  reserved, zero
//	  [24:32)  placement salt, uint64
//	  [32:40)  pairs resident on this shard, uint64
//	  [40:48)  slot count, uint64: the next power of two >= 2 * pairs, or 0
//	  [48:56)  slab value count, uint64
//	  [56:64)  checksum, uint64 over header[0:56] ++ payload, the payload's
//	           final partial word zero-padded
//	payload
//	  uvarint occupied slot count
//	  per occupied slot, ascending slot index:
//	    uvarint gap from the previous occupied slot (first: the index itself)
//	    svarint key.A, svarint key.B, key tag byte
//	    svarint first.A, svarint first.B
//	    uvarint count, uvarint slab offset, each at most math.MaxInt32
//	  per slab value: svarint A, svarint B
//
// An svarint is a zigzag-mapped uvarint. Empty slots are elided — the
// decoder re-zeroes them — and graph workloads keep keys and values near
// zero, where a varint is one or two bytes instead of eight.
//
// Versioning rules: the magic never changes; any layout change bumps the
// version, and readers reject versions they do not know with ErrBadVersion.
// Reserved bytes are written as zero and ignored on read, so they are
// available to future versions only behind a version bump.
const (
	shardMagic    = "AMPCSHRD"
	shardVersion  = 1
	headerBytes   = 64
	checksumSeed  = 0x9e3779b97f4a7c15
	maxShardFiles = 1 << 20 // sanity cap on the shard count read from a header
)

// encPacked is the encoding byte a segment's section table and an rpc put
// carry for every section. It is the only encoding: readers refuse any
// other value with ErrBadVersion. (Value 0 named the 48-byte-record block
// earlier writers emitted for empty shards.)
const encPacked byte = 1

// zigzag maps signed to unsigned so small-magnitude values of either sign
// stay short under varint encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varReader decodes the varint stream of a section with a sticky error, so
// decode loops stay straight-line and every malformed input surfaces as a
// typed error instead of a panic.
type varReader struct {
	data []byte
	pos  int
	path string
	err  error
}

func (r *varReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n == 0 {
		r.err = fmt.Errorf("%w: %s: varint cut short", ErrTruncated, r.path)
		return 0
	}
	if n < 0 {
		r.err = fmt.Errorf("%w: %s: varint overflows 64 bits", ErrBadGeometry, r.path)
		return 0
	}
	r.pos += n
	return v
}

func (r *varReader) svarint() int64 { return unzigzag(r.uvarint()) }

func (r *varReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.err = fmt.Errorf("%w: %s: byte cut short", ErrTruncated, r.path)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *varReader) remaining() int { return len(r.data) - r.pos }

// tableSlots is the slot count a freeze gives a shard of n pairs: the next
// power of two >= 2n, so the table is at most half full, or 0 when empty.
func tableSlots(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len64(2*n-1)
}

// packShard appends shard sh, as shard index of count under salt, to dst in
// the section format. The varints come straight from the slot index, and the
// checksum folds over the bytes just written. The tests hold it to an
// independent reference packer.
func packShard(dst []byte, sh *shard, index, count int, salt uint64) []byte {
	base := len(dst)
	dst = growBytes(dst, headerBytes)
	h := dst[base : base+headerBytes]
	clear(h)
	copy(h[0:8], shardMagic)
	le.PutUint32(h[8:], shardVersion)
	le.PutUint32(h[12:], uint32(index))
	le.PutUint32(h[16:], uint32(count))
	le.PutUint64(h[24:], salt)
	le.PutUint64(h[32:], uint64(sh.size))
	le.PutUint64(h[40:], uint64(len(sh.slots)))
	le.PutUint64(h[48:], uint64(len(sh.slab)))
	occ := 0
	for _, w := range sh.bits {
		occ += bits.OnesCount64(w)
	}
	dst = binary.AppendUvarint(dst, uint64(occ))
	prev := -1
	for i := range sh.slots {
		if !sh.occupied(uint64(i)) {
			continue
		}
		sl := &sh.slots[i]
		k, v := sh.key(sl), sh.first(sl)
		dst = binary.AppendUvarint(dst, uint64(i-prev-1))
		prev = i
		dst = binary.AppendUvarint(dst, zigzag(k.A))
		dst = binary.AppendUvarint(dst, zigzag(k.B))
		dst = append(dst, k.Tag)
		dst = binary.AppendUvarint(dst, zigzag(v.A))
		dst = binary.AppendUvarint(dst, zigzag(v.B))
		dst = binary.AppendUvarint(dst, uint64(uint32(sl.count)))
		dst = binary.AppendUvarint(dst, uint64(uint32(sl.off)))
	}
	for _, v := range sh.slab {
		dst = binary.AppendUvarint(dst, zigzag(v.A))
		dst = binary.AppendUvarint(dst, zigzag(v.B))
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
// OpenSection. An encoding byte other than encPacked is refused with
// ErrBadVersion. The header fields that need nothing else — version, shard
// index and count — are checked first, then the checksum over the bytes
// received, then the declared sizes against the section itself, before
// anything is allocated: the slot count must be the one a freeze picks for
// the pair count, and every pair and every slab value costs at least two
// payload bytes, so a forged header can demand at most a constant multiple
// of its own length. Listed records go straight into their slots (a record
// listed with count 0 stays an empty slot), then finish validates the
// table.
func openSection(sh *shard, data []byte, enc byte, index int, path string) (blockHeader, error) {
	if enc != encPacked {
		return blockHeader{}, fmt.Errorf("%w: %s: section encoding %d, reader implements %d", ErrBadVersion, path, enc, encPacked)
	}
	if len(data) < headerBytes {
		return blockHeader{}, fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrTruncated, path, len(data), headerBytes)
	}
	if string(data[0:8]) != shardMagic {
		return blockHeader{}, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	h, payload := data[:headerBytes], data[headerBytes:]
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
	if sum := checksum(h[:56], payload); sum != le.Uint64(h[56:]) {
		return hdr, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	if want := tableSlots(hdr.size); hdr.slots != want {
		return hdr, fmt.Errorf("%w: %s: %d slots for %d pairs, a freeze picks %d",
			ErrBadGeometry, path, hdr.slots, hdr.size, want)
	}
	if room := uint64(len(payload)) / 2; hdr.size > room || hdr.slab > room {
		return hdr, fmt.Errorf("%w: %s: %d payload bytes, header declares %d pairs and %d slab values",
			ErrTruncated, path, len(payload), hdr.size, hdr.slab)
	}
	sh.alloc(hdr.slots, hdr.slab)
	r := &varReader{data: payload, path: path}
	occ := r.uvarint()
	if r.err == nil && occ > hdr.slots {
		return hdr, fmt.Errorf("%w: %s: %d occupied of %d slots", ErrBadGeometry, path, occ, hdr.slots)
	}
	next := uint64(0) // the lowest slot index the next record may take
	for j := uint64(0); j < occ && r.err == nil; j++ {
		gap := r.uvarint()
		if r.err != nil {
			break
		}
		if gap >= hdr.slots-next {
			return hdr, fmt.Errorf("%w: %s: slot gap %d after slot %d of %d slots",
				ErrBadGeometry, path, gap, int64(next)-1, hdr.slots)
		}
		i := next + gap
		next = i + 1
		ka, kb := r.svarint(), r.svarint()
		k := Key{Tag: r.byte(), A: ka, B: kb}
		v := Value{A: r.svarint(), B: r.svarint()}
		count, off := r.uvarint(), r.uvarint()
		if count > math.MaxInt32 || off > math.MaxInt32 {
			return hdr, fmt.Errorf("%w: %s: slot %d count %d, slab offset %d beyond int32",
				ErrBadGeometry, path, i, count, off)
		}
		if count != 0 {
			sh.set(i, k, v, int32(count), int32(off))
			sh.claim(i)
		}
	}
	for i := range sh.slab {
		if r.err != nil {
			break
		}
		sh.slab[i] = Value{A: r.svarint(), B: r.svarint()}
	}
	if r.err != nil {
		return hdr, r.err
	}
	if r.remaining() != 0 {
		return hdr, fmt.Errorf("%w: %s: %d trailing bytes", ErrBadGeometry, path, r.remaining())
	}
	return hdr, sh.finish(hdr, path)
}

// alloc gives sh an all-clear table of slots entries and a slab of slab
// values for the decoder to fill.
func (sh *shard) alloc(slots, slab uint64) {
	sh.slots = make([]slot, slots)
	sh.bits = make([]uint64, bitWords(int(slots)))
	sh.slab = make([]Value, slab)
	sh.mask = max(slots, 1) - 1
}

// finish is the structural validation the decode ends with. A checksum only
// proves the bytes match what some writer computed — not that the writer
// was honest — so reads are made safe here: every occupied slot's slab
// window must lie inside the slab, the counts must sum to the declared pair
// count, and at least one slot must be empty or the linear probe for an
// absent key would never terminate. A shard that passes takes the declared
// pair count.
func (sh *shard) finish(hdr blockHeader, path string) error {
	occupied, total := 0, uint64(0)
	for wi, word := range sh.bits {
		for ; word != 0; word &= word - 1 {
			sl := &sh.slots[wi<<6|bits.TrailingZeros64(word)]
			occupied++
			total += uint64(sl.count)
			if sl.count > 1 && uint64(sl.off)+uint64(sl.count-1) > hdr.slab {
				return fmt.Errorf("%w: %s: slot slab window [%d, %d) outside slab of %d values",
					ErrBadGeometry, path, sl.off, uint64(sl.off)+uint64(sl.count-1), hdr.slab)
			}
		}
	}
	if occupied > 0 && occupied == len(sh.slots) {
		return fmt.Errorf("%w: %s: no empty slot, probes would not terminate", ErrBadGeometry, path)
	}
	if total != hdr.size {
		return fmt.Errorf("%w: %s: slot counts sum to %d, header declares %d pairs",
			ErrBadGeometry, path, total, hdr.size)
	}
	sh.size = int(hdr.size)
	return nil
}
