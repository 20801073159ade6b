package dds

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// On-disk segment format (version 3).
//
// A frozen store serializes as ONE file — store-NNNNNN.seg — instead of the
// v1 layout's one file per shard. Writing P shard files per round made the
// file backend's freeze 20-50x the in-memory backend's: the cost was P
// opens, P tiny writes and P closes, not the bytes. A segment batches the
// shards of one store behind a single super-header, written through one
// reused buffer and one write syscall.
//
//	super-header  64 bytes
//	  [0:8)    magic "AMPCSEGM"
//	  [8:12)   format version, uint32 (currently 3)
//	  [12:16)  shard count, uint32
//	  [16:24)  placement salt, uint64
//	  [24:32)  total pairs, uint64
//	  [32:40)  total file size in bytes, uint64
//	  [40:48)  reserved, written all-ones, ignored on read
//	  [48:56)  reserved, zero
//	  [56:64)  checksum, uint64 over header[0:56] ++ section table
//	section table  shard count * 24-byte entries
//	  [0:8)    section offset from the start of the file, uint64
//	  [8:16)   section length in bytes, uint64
//	  [16]     section encoding (encRaw, encPacked)
//	  [17:24)  reserved, zero
//	sections  one per shard, contiguous and in shard order
//
// A raw section is bit-for-bit a v1 shard block (64-byte shard header, slot
// records, slab records) keeping its own checksum and slot/slab geometry, so
// it validates independently. A packed section (segcodec.go) carries a
// checksum over its own packed bytes, so an open checks integrity against
// what is on disk before decoding. Both decode straight into an in-memory
// shard and pass the same header checks and structural validation. Every
// segment is self-contained. Sections must start immediately
// after the table and tile the file exactly; a table whose offsets are
// swapped, overlapping or gapped is rejected as ErrBadGeometry before any
// section is read.
//
// Versioning rules match the shard format: the magic never changes, layout
// changes bump the version, readers reject versions (and section encodings)
// they do not implement.
const (
	segmentMagic   = "AMPCSEGM"
	segmentVersion = 3
	segTableEntry  = 24
	segFileFmt     = "store-%06d.seg"

	// segStreamThreshold is the estimated raw size beyond which
	// writeSegment streams sections to the file a window at a time through
	// reused per-worker scratch instead of assembling the whole segment in
	// memory, keeping the publish-path allocation O(workers × largest
	// section) for out-of-core stores.
	segStreamThreshold = 64 << 20
)

// SectionError locates a validation failure inside one section of a segment
// file. It wraps the section's underlying typed error — ErrChecksum,
// ErrTruncated, ErrBadGeometry, ErrBadVersion, ... — so errors.Is sees
// through it, and errors.As recovers which shard's section is damaged.
type SectionError struct {
	Section int
	Err     error
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("section %d: %v", e.Section, e.Err)
}

func (e *SectionError) Unwrap() error { return e.Err }

// segOpts selects how appendSegment encodes and writeSegment stores a
// segment. The zero value writes every section raw (AppendSegment) and
// fsyncs; compress enables packed sections — what disk and wire both carry.
type segOpts struct {
	compress bool

	// nosync skips the file and directory fsyncs after the atomic rename.
	// Write-behind publishes set it: a mid-run generation is superseded and
	// deleted seconds later, so per-segment fsync latency bought nothing but
	// a longer barrier join. The publisher fsyncs the run's surviving segment once,
	// at Close — power loss mid-run can tear at most scratch files that
	// crash recovery (sweepStaleRuns) or OpenSegment rejects.
	nosync bool
}

// AppendSegment serializes s as a segment into buf and returns the extended
// slice. Every section is raw — the uncompressed form, which SegmentSections
// slices — and serialization is deterministic: the same store produces
// identical bytes into a fresh or recycled buffer, with per-shard sections
// filling in parallel for large stores.
func AppendSegment(buf []byte, s *Store) []byte {
	return appendSegment(buf, s, segOpts{})
}

// appendSegment is AppendSegment with encoding options.
func appendSegment(buf []byte, s *Store, o segOpts) []byte {
	p := len(s.shards)
	parts := make([][]byte, p)
	encs := make([]byte, p)
	dispatch(p, buildWorkers(s.pairs), nil, func(i int) {
		parts[i], encs[i] = encodeSection(nil, s, i, o)
	})
	base := len(buf)
	total := headerBytes + p*segTableEntry
	for i := range parts {
		total += len(parts[i])
	}
	buf = growBytes(buf, total)
	seg := buf[base:]
	table := seg[headerBytes : headerBytes+p*segTableEntry]
	clear(table)
	off := headerBytes + p*segTableEntry
	for i := 0; i < p; i++ {
		e := table[i*segTableEntry:]
		le.PutUint64(e[0:], uint64(off))
		le.PutUint64(e[8:], uint64(len(parts[i])))
		e[16] = encs[i]
		copy(seg[off:], parts[i])
		off += len(parts[i])
	}
	fillSegmentHeader(seg[:headerBytes], s, table, uint64(off))
	return buf
}

func fillSegmentHeader(h []byte, s *Store, table []byte, size uint64) {
	clear(h)
	copy(h[0:8], segmentMagic)
	le.PutUint32(h[8:], segmentVersion)
	le.PutUint32(h[12:], uint32(len(s.shards)))
	le.PutUint64(h[16:], s.salt)
	le.PutUint64(h[24:], uint64(s.pairs))
	le.PutUint64(h[32:], size)
	le.PutUint64(h[40:], ^uint64(0)) // reserved: all-ones, as every v3 segment has held
	le.PutUint64(h[56:], checksum(h[0:56], table))
}

// segmentRawBytes estimates the serialized size of s before compression —
// the buffer the in-memory path would need — to pick the write strategy.
func segmentRawBytes(s *Store) int {
	total := headerBytes + len(s.shards)*segTableEntry
	for i := range s.shards {
		total += shardBlockBytes(&s.shards[i])
	}
	return total
}

// WriteSegment serializes s into path through buf (reused when large
// enough) and returns the possibly-grown buffer. Sections are packed where
// that wins. The write is atomic and durable: bytes go to a hidden temp file
// in path's directory, the file is fsynced, renamed over path, and the
// directory is fsynced — a crash leaves either no segment or a complete one,
// never a torn file, and a rename that returned means the segment survives
// power loss.
func WriteSegment(s *Store, path string, buf []byte) ([]byte, error) {
	return writeSegment(s, path, buf, segOpts{compress: true}, nil)
}

// errPublishCancelled reports a write-behind publish aborted before the
// segment was durable (context cancellation or publisher Close).
var errPublishCancelled = errors.New("dds: segment publish cancelled")

// writeSegment is WriteSegment with encoding options and a cancellation hook:
// when cancelled returns a non-nil error between write chunks, the temp file
// is removed and the error returned, so no partial segment survives. Stores
// whose raw size exceeds segStreamThreshold stream section by section
// instead of buffering the whole segment; the bytes on disk are identical
// either way.
func writeSegment(s *Store, path string, buf []byte, o segOpts, cancelled func() error) ([]byte, error) {
	if segmentRawBytes(s) > segStreamThreshold {
		return buf, streamSegment(s, path, o, cancelled)
	}
	buf = appendSegment(buf[:0], s, o)
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return buf, err
	}
	fail := func(err error) ([]byte, error) {
		f.Close()
		os.Remove(tmp)
		return buf, err
	}
	const chunk = 4 << 20
	for off := 0; off < len(buf); off += chunk {
		if cancelled != nil {
			if err := cancelled(); err != nil {
				return fail(err)
			}
		}
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := f.Write(buf[off:end]); err != nil {
			return fail(err)
		}
	}
	if !o.nosync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return buf, err
	}
	if cancelled != nil {
		if err := cancelled(); err != nil {
			os.Remove(tmp)
			return buf, err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return buf, err
	}
	if o.nosync {
		return buf, nil
	}
	return buf, syncDir(dir)
}

// streamSegment writes s to path in section order: a zeroed header+table
// placeholder first, then windows of one section per worker, encoded in
// parallel into reused scratch and written in cancellable chunks, then a
// seek back to patch the real header and table (whose checksum needs the
// final offsets) before fsync and rename. Out-of-core stores publish
// holding at most one encoded section per worker in memory.
func streamSegment(s *Store, path string, o segOpts, cancelled func() error) error {
	p := len(s.shards)
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	ht := make([]byte, headerBytes+p*segTableEntry)
	if _, err := f.Write(ht); err != nil {
		return fail(err)
	}
	const chunk = 4 << 20
	off := uint64(len(ht))
	workers := buildWorkers(s.pairs)
	parts := make([][]byte, workers)
	encs := make([]byte, workers)
	for lo := 0; lo < p; lo += workers {
		window := min(workers, p-lo)
		if cancelled != nil {
			if err := cancelled(); err != nil {
				return fail(err)
			}
		}
		dispatch(window, workers, nil, func(j int) {
			parts[j], encs[j] = encodeSection(parts[j], s, lo+j, o)
		})
		for j, part := range parts[:window] {
			for w := 0; w < len(part); w += chunk {
				end := w + chunk
				if end > len(part) {
					end = len(part)
				}
				if _, err := f.Write(part[w:end]); err != nil {
					return fail(err)
				}
				if cancelled != nil {
					if err := cancelled(); err != nil {
						return fail(err)
					}
				}
			}
			e := ht[headerBytes+(lo+j)*segTableEntry:]
			le.PutUint64(e[0:], off)
			le.PutUint64(e[8:], uint64(len(part)))
			e[16] = encs[j]
			off += uint64(len(part))
		}
	}
	fillSegmentHeader(ht[:headerBytes], s, ht[headerBytes:], off)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	if _, err := f.Write(ht); err != nil {
		return fail(err)
	}
	if !o.nosync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if cancelled != nil {
		if err := cancelled(); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if o.nosync {
		return nil
	}
	return syncDir(dir)
}

// syncPath fsyncs one file by path — the close-time durability pass over a
// run's surviving segment, whose write-behind publish skipped the
// per-segment fsync.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that cannot sync a directory fd (some network and overlay
// mounts) report EINVAL/ENOTSUP; that leaves the rename as durable as the
// platform allows and must not fail the publish.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenSegment reads the segment file at path and decodes it into a Store.
// The super-header checksum, the section tiling, and every section's own
// checksum and slot-table structure are verified; damage fails with the
// typed errors of this package, wrapped in a SectionError when it is
// confined to one section. Sections decode striped over the cores; the
// error reported is always the lowest-index section's. The store holds no
// file resources: it reads like any frozen store.
func OpenSegment(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sections, encs, err := sliceSections(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	count := len(sections)
	s := &Store{shards: make([]shard, count), salt: le.Uint64(data[16:]), div: newDivisor(uint64(count))}
	declaredPairs := le.Uint64(data[24:])
	// Sections decode in parallel, then are checked in section order, so the
	// SectionError returned is the lowest-index failure on every run.
	hdrs := make([]blockHeader, count)
	errs := make([]error, count)
	dispatch(count, buildWorkers(int(min(declaredPairs, 1<<31))), nil, func(i int) {
		hdrs[i], errs[i] = openSection(&s.shards[i], sections[i], encs[i], i, path)
	})
	pairs := uint64(0)
	for i, hdr := range hdrs {
		if errs[i] != nil {
			return nil, &SectionError{Section: i, Err: errs[i]}
		}
		if hdr.count != count || hdr.salt != s.salt {
			return nil, &SectionError{Section: i, Err: fmt.Errorf(
				"%w: %s: section disagrees with super-header on shard count or salt", ErrBadGeometry, path)}
		}
		pairs += uint64(hdr.size)
	}
	if pairs != declaredPairs {
		return nil, fmt.Errorf("%w: %s: sections hold %d pairs, super-header declares %d",
			ErrBadGeometry, path, pairs, declaredPairs)
	}
	s.pairs = int(pairs)
	return s, nil
}

// openSection decodes one section of encoding enc into sh as shard index —
// the one section decoder behind both OpenSegment and the shard server's
// OpenSection. Any encoding byte other than raw or packed is refused with
// ErrBadVersion.
func openSection(sh *shard, data []byte, enc byte, index int, path string) (blockHeader, error) {
	switch enc {
	case encRaw:
		return parseShardBlock(sh, data, path, index)
	case encPacked:
		return unpackShard(sh, data, path, index)
	}
	return blockHeader{}, fmt.Errorf("%w: %s: section encoding %d, reader implements raw/packed", ErrBadVersion, path, enc)
}
