package dds

import (
	"errors"
	"fmt"
)

// This file is the dds surface a networked store builds on. A remote shard
// server receives the same serialized shard blocks the segment codec writes
// to disk (one v1 block per shard, sliced out of a segment's section table)
// and answers point queries over them through ShardReader — the identical
// probe sequence as the mmap'd segment, so a remote read returns
// byte-for-byte what a local read of the same frozen store would.

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

// SegmentSections slices a serialized segment (AppendSegment's output) into
// its per-shard section byte ranges, in shard order, without copying.
// Section i is bit-for-bit a v1 shard block, the unit a shard server stores
// and validates independently — AppendSegment writes every section raw, and
// a compressed section (the on-disk publisher's form) is rejected here, so a
// slice handed to the wire is always a self-contained block. The
// super-header and section tiling are checked so the returned slices are in
// bounds; section contents are not re-validated here — the receiver does
// that when it opens each block.
func SegmentSections(seg []byte) ([][]byte, error) {
	if len(seg) < headerBytes {
		return nil, fmt.Errorf("%w: segment of %d bytes, super-header needs %d", ErrTruncated, len(seg), headerBytes)
	}
	h := seg[:headerBytes]
	if string(h[0:8]) != segmentMagic {
		return nil, fmt.Errorf("%w: not a segment", ErrBadMagic)
	}
	if v := le.Uint32(h[8:]); v != segmentVersion {
		return nil, fmt.Errorf("%w: segment version %d, reader implements %d", ErrBadVersion, v, segmentVersion)
	}
	count := int(le.Uint32(h[12:]))
	if count <= 0 || count > maxShardFiles {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadGeometry, count)
	}
	tableEnd := headerBytes + count*segTableEntry
	if len(seg) < tableEnd {
		return nil, fmt.Errorf("%w: segment of %d bytes, section table needs %d", ErrTruncated, len(seg), tableEnd)
	}
	table := seg[headerBytes:tableEnd]
	sections := make([][]byte, count)
	next := uint64(tableEnd)
	for i := 0; i < count; i++ {
		off := le.Uint64(table[i*segTableEntry:])
		length := le.Uint64(table[i*segTableEntry+8:])
		if enc := table[i*segTableEntry+16]; enc != encRaw {
			return nil, fmt.Errorf("%w: section %d has encoding %d; only raw sections can be sliced for the wire",
				ErrBadGeometry, i, enc)
		}
		if off != next {
			return nil, fmt.Errorf("%w: section %d starts at %d, want %d", ErrBadGeometry, i, off, next)
		}
		if length < headerBytes || length > uint64(len(seg))-off {
			return nil, fmt.Errorf("%w: section %d of %d bytes at offset %d outside the segment",
				ErrBadGeometry, i, length, off)
		}
		next = off + length
		sections[i] = seg[off:next:next]
	}
	if next != uint64(len(seg)) {
		return nil, fmt.Errorf("%w: sections end at %d of %d bytes", ErrBadGeometry, next, len(seg))
	}
	return sections, nil
}

// ShardReader answers point queries over one serialized shard block — the
// read side of a shard server. It retains the block bytes it was opened
// over; the probe sequence is identical to the mmap'd file path, so a query
// answered remotely returns exactly what the local store would.
type ShardReader struct {
	fs     fileShard
	index  int
	shards int
	salt   uint64
}

// OpenShardBlock decodes one serialized shard block (a raw section of a
// segment) into a reader. index is the shard index the
// block must declare. verify=true additionally checks the checksum and scans
// the slot table so reads over untrusted bytes cannot probe out of bounds or
// loop; a server receiving blocks over the network should keep it on.
func OpenShardBlock(data []byte, index int, verify bool) (*ShardReader, error) {
	hdr, err := parseShardBlock(data, fmt.Sprintf("shard block %d", index), index, verify)
	if err != nil {
		return nil, err
	}
	return &ShardReader{
		fs:     fileShard{slots: hdr.slots, mask: hdr.mask, slab: hdr.slab, size: hdr.size},
		index:  index,
		shards: hdr.count,
		salt:   hdr.salt,
	}, nil
}

// Index returns the shard index the block declares.
func (r *ShardReader) Index() int { return r.index }

// ShardCount returns the total shard count of the store the block came from.
func (r *ShardReader) ShardCount() int { return r.shards }

// Salt returns the placement salt the store was built with.
func (r *ShardReader) Salt() uint64 { return r.salt }

// Pairs returns the number of pairs resident on this shard.
func (r *ShardReader) Pairs() int { return r.fs.size }

// Owns reports whether key k routes to this shard under the block's salt and
// shard count — the guard a server applies before answering, so a misrouted
// key is an error instead of a silent miss.
func (r *ShardReader) Owns(k Key) bool {
	return ShardOf(k, r.salt, r.shards) == r.index
}

// Get returns the value stored under k (index 0 of a duplicated key).
func (r *ShardReader) Get(k Key) (Value, bool) {
	off := r.fs.findOff(k, hash(k, r.salt))
	if off < 0 {
		return Value{}, false
	}
	return r.fs.value(off, 0), true
}

// GetIndexed returns the i-th (0-based) value stored under k.
func (r *ShardReader) GetIndexed(k Key, i int) (Value, bool) {
	off := r.fs.findOff(k, hash(k, r.salt))
	if off < 0 || i < 0 || i >= r.fs.count(off) {
		return Value{}, false
	}
	return r.fs.value(off, i), true
}

// GetRange appends the values stored under k at indices [lo, hi) to dst.
func (r *ShardReader) GetRange(k Key, lo, hi int, dst []Value) []Value {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return dst
	}
	off := r.fs.findOff(k, hash(k, r.salt))
	if off < 0 {
		return dst
	}
	if n := r.fs.count(off); hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, r.fs.value(off, i))
	}
	return dst
}

// Count returns the number of pairs stored under k.
func (r *ShardReader) Count(k Key) int {
	off := r.fs.findOff(k, hash(k, r.salt))
	if off < 0 {
		return 0
	}
	return r.fs.count(off)
}
