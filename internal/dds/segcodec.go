package dds

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Section encodings of the v3 segment format. A section table entry carries
// one of these in its encoding byte; readers reject values they do not
// implement with ErrBadVersion. encRaw is bit-for-bit a v1 shard block.
// encPacked is the same block with empty slots elided and every field
// varint-packed; its header checksum word covers the packed bytes on disk
// (not the decoded raw form), so integrity is verified against what was
// actually written before any decoding runs.
const (
	encRaw    byte = 0
	encPacked byte = 1
)

const (
	// packThreshold is the largest raw section the writer will pack.
	// Beyond it a section stays raw: readers cap the raw size a packed
	// header may declare (maxPackedRaw) so a corrupt one cannot demand an
	// unbounded decode allocation, and the writer stays well inside it.
	packThreshold = 4 << 20

	// maxPackedRaw bounds the raw size a packed section may declare —
	// 2x the write threshold, so the reader keeps accepting files if
	// packThreshold ever grows, while a corrupt header cannot demand an
	// unbounded allocation.
	maxPackedRaw = 8 << 20
)

// zigzag maps signed to unsigned so small-magnitude values of either sign
// stay short under varint encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varReader decodes the varint stream of a packed section with a
// sticky error, so decode loops stay straight-line and every malformed input
// surfaces as a typed error instead of a panic.
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

// checksumPacked folds a packed section through the store's SplitMix64
// chain: the 56 header bytes word by word, then the varint payload with its
// final partial word zero-padded, so every payload byte is covered (raw
// blocks are word-aligned; varint streams are not).
func checksumPacked(header, payload []byte) uint64 {
	h := uint64(checksumSeed)
	for i := 0; i+8 <= len(header); i += 8 {
		h = mix(h ^ le.Uint64(header[i:]))
	}
	i := 0
	for ; i+8 <= len(payload); i += 8 {
		h = mix(h ^ le.Uint64(payload[i:]))
	}
	if i < len(payload) {
		var tail [8]byte
		copy(tail[:], payload[i:])
		h = mix(h ^ le.Uint64(tail[:]))
	}
	return h
}

// packShard appends the packed form of one in-memory shard's raw v1 block
// to dst:
//
//	[0:64)  the raw block header, with the checksum word [56:64) replaced
//	        by a sum over header[0:56) plus the packed payload — integrity
//	        covers the bytes on disk, and the writer never has to fold the
//	        checksum chain over the raw form's zero padding
//	uvarint occupied slot count
//	per occupied slot, ascending slot index:
//	  uvarint gap from the previous occupied slot (first: the index itself)
//	  svarint key.A, svarint key.B, key tag byte
//	  svarint first.A, svarint first.B
//	  uvarint count, uvarint slab offset
//	per slab record (slab count from the header): svarint A, svarint B
//
// Empty slots are elided entirely — the decoder re-zeroes them — which is
// where the win comes from: slot tables run at most half full by
// construction, and graph workloads keep keys and values near zero where
// varints are one or two bytes instead of eight. The raw block is never
// materialized: the varints come straight from the slot index and the
// checksum folds over the packed bytes just written. The tests hold it to
// a reference packer over the raw block.
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
		dst = binary.AppendUvarint(dst, zigzag(int64(v.A)))
		dst = binary.AppendUvarint(dst, zigzag(int64(v.B)))
	}
	le.PutUint64(dst[base+56:], checksumPacked(dst[base:base+56], dst[base+headerBytes:]))
	return dst
}

// unpackShard decodes a packed section into sh. The packed checksum is
// checked against the bytes received before any decoding, so corruption
// surfaces as ErrChecksum. Only the declared slot and slab counts are
// trusted before the checks, to size the allocation under maxPackedRaw;
// listed records go straight into their slots (a record listed with count 0
// stays an empty slot, as it reads in a raw block), then the header checks
// and the structural validation a raw section gets run on the result, so a
// forged header fails with the same typed errors.
func unpackShard(sh *shard, data []byte, path string, index int) (blockHeader, error) {
	if err := checkMagic(data, path); err != nil {
		return blockHeader{}, err
	}
	h := data[:headerBytes]
	if sum := checksumPacked(h[:56], data[headerBytes:]); sum != le.Uint64(h[56:]) {
		return blockHeader{}, fmt.Errorf("%w: %s: packed section", ErrChecksum, path)
	}
	slotCount, slabCount := le.Uint64(h[40:48]), le.Uint64(h[48:56])
	if slotCount > maxPackedRaw/slotBytes || slabCount > maxPackedRaw/valueBytes ||
		headerBytes+slotCount*slotBytes+slabCount*valueBytes > maxPackedRaw {
		return blockHeader{}, fmt.Errorf("%w: %s: packed section declares %d slots, %d slab records; reader caps raw size at %d bytes",
			ErrBadGeometry, path, slotCount, slabCount, maxPackedRaw)
	}
	sh.alloc(slotCount, slabCount)
	r := &varReader{data: data[headerBytes:], path: path}
	occ := r.uvarint()
	if r.err == nil && occ > slotCount {
		return blockHeader{}, fmt.Errorf("%w: %s: packed section declares %d occupied of %d slots",
			ErrBadGeometry, path, occ, slotCount)
	}
	next := uint64(0) // the lowest slot index the next record may take
	for j := uint64(0); j < occ && r.err == nil; j++ {
		gap := r.uvarint()
		if r.err != nil {
			break
		}
		if gap >= slotCount-next {
			return blockHeader{}, fmt.Errorf("%w: %s: packed slot gap %d after slot %d of %d slots",
				ErrBadGeometry, path, gap, int64(next)-1, slotCount)
		}
		i := next + gap
		next = i + 1
		ka, kb := r.svarint(), r.svarint()
		k := Key{Tag: r.byte(), A: ka, B: kb}
		v := Value{A: r.svarint(), B: r.svarint()}
		if count, off := int32(uint32(r.uvarint())), int32(uint32(r.uvarint())); count != 0 {
			sh.set(i, k, v, count, off)
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
		return blockHeader{}, r.err
	}
	if r.remaining() != 0 {
		return blockHeader{}, fmt.Errorf("%w: %s: %d trailing bytes in packed section",
			ErrBadGeometry, path, r.remaining())
	}
	hdr, err := readBlockHeader(h, path, index)
	if err != nil {
		return hdr, err
	}
	return hdr, sh.finish(hdr, path)
}

// encodeSection appends shard i of s to dst[:0] under the segment options and
// returns the section with its encoding: packed when compression is on, the
// section is small enough to decode at open, and packing is smaller than the
// raw block; raw otherwise (a tie keeps raw, the cheaper decode). The choice
// is a pure function of the store and options, never of scheduling. A caller
// reusing dst across sections must consume each result before encoding the
// next.
func encodeSection(dst []byte, s *Store, i int, o segOpts) ([]byte, byte) {
	sh := &s.shards[i]
	n := shardBlockBytes(sh)
	if o.compress && n <= packThreshold {
		// Pack straight from the shard index; the raw size is known from
		// geometry alone, so when packing wins (the common case — slot
		// tables run at most half full) the raw block is never built.
		dst = packShard(dst[:0], sh, i, len(s.shards), s.salt)
		if len(dst) < n {
			return dst, encPacked
		}
	}
	dst = growBytes(dst[:0], n)
	fillShardBlock(dst, sh, i, len(s.shards), s.salt)
	return dst, encRaw
}
