package dds

import (
	"errors"
	"fmt"
)

// This file is the dds surface a networked store builds on. A publisher
// ships each generation in the segment codec's own sections — EncodeSections
// packs them exactly as the file publisher does on disk — and a remote shard
// server opens each one with OpenSection, the decoder behind OpenSegment,
// into the in-memory shard form every store reads, then answers point
// queries through ShardReader with shard.find, so a remote read returns
// exactly what a local read of the same frozen store would.

// ErrBackendUnavailable reports that a store backend could not answer reads
// or accept writes — a shard server is unreachable, timed out, or no replica
// of a shard's generation is resident anywhere. Errors wrapping it carry the
// failing shard range and server address; use errors.Is to classify.
var ErrBackendUnavailable = errors.New("dds: store backend unavailable")

// BatchGetter is an optional StoreBackend capability: Get over a whole key
// batch in one call. A networked backend implements it to coalesce a
// machine's read set into per-server request frames instead of paying one
// round trip per key; in-process backends answer key by key and gain
// nothing, so the runtime only uses it when the type assertion succeeds.
//
// GetMany fills vals[i], oks[i] for each keys[i] with exactly the result
// Get(keys[i]) would return, and accounts per-shard load identically (one
// query per key). The three slices must have equal length.
type BatchGetter interface {
	GetMany(keys []Key, vals []Value, oks []bool)
}

// ShardOf returns the index of the shard owning key k in a store of p shards
// built with the given placement salt — the routing rule every backend
// reproduces. A networked client uses it to group a key batch by owning
// server before framing requests.
func ShardOf(k Key, salt uint64, p int) int {
	return int(hash(k, salt) % uint64(p))
}

// EncodeSections serializes s into buf (reused as scratch) as the networked
// publisher ships it: AppendSegment's segment, the bytes the file publisher
// writes. It returns the segment bytes and, in shard order, each section (a
// view into them) with its encoding byte: the pairs OpenSection takes.
func EncodeSections(buf []byte, s *Store) ([]byte, [][]byte, []byte) {
	buf = AppendSegment(buf[:0], s)
	sections, encs, err := sliceSections(buf)
	if err != nil {
		panic("dds: EncodeSections produced an unreadable segment: " + err.Error())
	}
	return buf, sections, encs
}

// SegmentSections slices a segment (AppendSegment's output) into its
// per-shard sections, in shard order, without copying, after the checks
// sliceSections makes. Its one caller outside the tests is the benchmark's
// computed rpc.wire_bytes_per_generation: the sections are what a put
// carries.
func SegmentSections(seg []byte) ([][]byte, error) {
	sections, _, err := sliceSections(seg)
	return sections, err
}

// sliceSections checks a serialized segment's super-header — its checksum
// over the header and section table, and the size it declares — and the
// section tiling, and returns each section's bytes and encoding byte, so the
// returned slices are in bounds; section contents are left to openSection.
func sliceSections(seg []byte) ([][]byte, []byte, error) {
	if len(seg) < headerBytes {
		return nil, nil, fmt.Errorf("%w: segment of %d bytes, super-header needs %d", ErrTruncated, len(seg), headerBytes)
	}
	h := seg[:headerBytes]
	if string(h[0:8]) != segmentMagic {
		return nil, nil, fmt.Errorf("%w: not a segment", ErrBadMagic)
	}
	if v := le.Uint32(h[8:]); v != segmentVersion {
		return nil, nil, fmt.Errorf("%w: segment version %d, reader implements %d", ErrBadVersion, v, segmentVersion)
	}
	count := int(le.Uint32(h[12:]))
	if count <= 0 || count > maxShardFiles {
		return nil, nil, fmt.Errorf("%w: shard count %d", ErrBadGeometry, count)
	}
	tableEnd := headerBytes + count*segTableEntry
	if len(seg) < tableEnd {
		return nil, nil, fmt.Errorf("%w: segment of %d bytes, section table needs %d", ErrTruncated, len(seg), tableEnd)
	}
	table := seg[headerBytes:tableEnd]
	if sum := checksum(h[0:56], table); sum != le.Uint64(h[56:]) {
		return nil, nil, fmt.Errorf("%w: super-header", ErrChecksum)
	}
	if size, declared := uint64(len(seg)), le.Uint64(h[32:]); declared > size {
		return nil, nil, fmt.Errorf("%w: %d bytes, super-header declares %d", ErrTruncated, size, declared)
	} else if declared < size {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadGeometry, size-declared)
	}
	sections := make([][]byte, count)
	encs := make([]byte, count)
	next := uint64(tableEnd)
	for i := 0; i < count; i++ {
		off := le.Uint64(table[i*segTableEntry:])
		length := le.Uint64(table[i*segTableEntry+8:])
		if off != next {
			return nil, nil, fmt.Errorf("%w: section %d starts at %d, want %d", ErrBadGeometry, i, off, next)
		}
		// Bound length by subtraction, never `off+length > size`: a crafted
		// length near 2^64 would wrap the addition past the check and panic
		// the slicing below.
		if length == 0 || length > uint64(len(seg))-off {
			return nil, nil, fmt.Errorf("%w: section %d of %d bytes at offset %d outside the segment",
				ErrBadGeometry, i, length, off)
		}
		next = off + length
		sections[i] = seg[off:next:next]
		encs[i] = table[i*segTableEntry+16]
	}
	if next != uint64(len(seg)) {
		return nil, nil, fmt.Errorf("%w: sections end at %d of %d bytes", ErrBadGeometry, next, len(seg))
	}
	return sections, encs, nil
}

// ShardReader answers point queries over one opened section — the read side
// of a shard server. It holds the section decoded into the same shard form a
// local store reads, so a query answered remotely returns exactly what the
// local store would.
type ShardReader struct {
	sh     shard
	shards int
	salt   uint64
}

// OpenSection opens one section as EncodeSections produced it — enc is its
// encoding byte, index the shard it must declare — through the decoder and
// checks behind OpenSegment: the checksum over the bytes received before
// anything decodes, declared sizes the section itself bounds, then the
// structural validation that keeps probes over untrusted bytes in bounds.
// The shard count must be in range and hold index, since readers route by
// it. An encoding byte other than the packed one is refused with
// ErrBadVersion, and every failure comes wrapped in a SectionError naming
// index. The section decodes into memory the reader owns, so data may be
// reused once OpenSection returns.
func OpenSection(data []byte, enc byte, index int) (*ShardReader, error) {
	r := new(ShardReader)
	hdr, err := openSection(&r.sh, data, enc, index, "section")
	if err != nil {
		return nil, &SectionError{Section: index, Err: err}
	}
	r.shards, r.salt = hdr.count, hdr.salt
	return r, nil
}

// ShardCount returns the total shard count of the store the section came from.
func (r *ShardReader) ShardCount() int { return r.shards }

// Salt returns the placement salt the store was built with.
func (r *ShardReader) Salt() uint64 { return r.salt }

// Get returns the value stored under k (index 0 of a duplicated key).
func (r *ShardReader) Get(k Key) (Value, bool) {
	if sl := r.sh.find(k, hash(k, r.salt)); sl != nil {
		return r.sh.first(sl), true
	}
	return Value{}, false
}

// GetRange appends the values stored under k at indices [lo, hi) to dst.
func (r *ShardReader) GetRange(k Key, lo, hi int, dst []Value) []Value {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return dst
	}
	sl := r.sh.find(k, hash(k, r.salt))
	if sl == nil {
		return dst
	}
	for i := lo; i < min(hi, int(sl.count)); i++ {
		dst = append(dst, r.sh.value(sl, i))
	}
	return dst
}

// Count returns the number of pairs stored under k.
func (r *ShardReader) Count(k Key) int {
	if sl := r.sh.find(k, hash(k, r.salt)); sl != nil {
		return int(sl.count)
	}
	return 0
}
