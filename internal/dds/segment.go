package dds

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// On-disk segment format (version 3).
//
// A frozen store serializes as ONE file — store-NNNNNN.seg — instead of one
// file per shard. Writing P shard files per round made the file backend's
// freeze 20-50x the in-memory backend's: the cost was P opens, P tiny writes
// and P closes, not the bytes. A segment batches the sections of one store
// behind a single super-header, streamed in shard order through one
// buffered writer.
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
//	  [16]     section encoding, encPacked
//	  [17:24)  reserved, zero
//	sections  one per shard, contiguous and in shard order
//
// Each section (segcodec.go) keeps its own header, geometry and checksum
// over its own bytes, so it validates independently and an open checks
// integrity against what is on disk before decoding it into an in-memory
// shard. Every segment is self-contained. Sections must start immediately
// after the table and tile the file exactly; a table whose offsets are
// swapped, overlapping or gapped is rejected as ErrBadGeometry before any
// section is read.
//
// Versioning rules match the section format: the magic never changes,
// layout changes bump the version, readers reject versions and section
// encodings they do not implement with ErrBadVersion.
const (
	segmentMagic   = "AMPCSEGM"
	segmentVersion = 3
	segTableEntry  = 24
	segFileFmt     = "store-%06d.seg"
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

// AppendSegment serializes s as a segment into buf and returns the extended
// slice: in memory, the bytes streamSegment puts in a segment file, and
// what EncodeSections ships. Sections pack in parallel for large stores,
// and the bytes are a pure function of the store: the same into a fresh or
// a recycled buffer.
func AppendSegment(buf []byte, s *Store) []byte {
	p := len(s.shards)
	parts := make([][]byte, p)
	dispatch(p, buildWorkers(s.pairs), nil, func(i int) {
		parts[i] = packShard(nil, &s.shards[i], i, p, s.salt)
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
		e[16] = encPacked
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

// WriteSegment writes s to path as a segment file, fsynced (see
// streamSegment): a crash leaves either no segment or a complete one, and a
// return means the segment survives power loss. buf is unused and returned
// as is; the parameter stays for existing callers.
func WriteSegment(s *Store, path string, buf []byte) ([]byte, error) {
	return buf, streamSegment(s, path, false, nil)
}

// errPublishCancelled reports a write-behind publish aborted before the
// segment was durable (context cancellation or publisher Close).
var errPublishCancelled = errors.New("dds: segment publish cancelled")

// writeChunk is the buffered writer's size and the most streamSegment
// writes between two polls of its cancellation hook.
const writeChunk = 1 << 20

// streamSegment writes s to path, the one segment file writer: a zeroed
// header+table placeholder first, then the sections in shard order —
// windows of one section per worker, packed in parallel into reused scratch
// and written through one buffered writer, so small sections share a write
// syscall — then the real header and table, whose checksum needs the final
// offsets, over the placeholder. Memory stays at one packed section per
// worker whatever the store's size, and the bytes are AppendSegment's.
//
// The write is atomic: the bytes go to a hidden temp file in path's
// directory, which is fsynced, renamed over path, and the directory
// fsynced. nosync skips both fsyncs. Write-behind publishes set it: a
// mid-run generation is superseded and deleted seconds later, so the
// publisher fsyncs the run's surviving segment once, at Close, and power
// loss mid-run can tear at most scratch files that crash recovery
// (sweepStaleRuns) or OpenSegment rejects. cancelled, when not nil, is
// polled between windows and write chunks and before the rename; once it
// returns an error the temp file is removed and the error returned, so no
// partial segment survives.
func streamSegment(s *Store, path string, nosync bool, cancelled func() error) error {
	if cancelled == nil {
		cancelled = func() error { return nil }
	}
	p := len(s.shards)
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriterSize(f, writeChunk)
	ht := make([]byte, headerBytes+p*segTableEntry)
	if _, err := w.Write(ht); err != nil {
		return fail(err)
	}
	off := uint64(len(ht))
	workers := buildWorkers(s.pairs)
	parts := make([][]byte, workers)
	for lo := 0; lo < p; lo += workers {
		window := min(workers, p-lo)
		if err := cancelled(); err != nil {
			return fail(err)
		}
		dispatch(window, workers, nil, func(j int) {
			parts[j] = packShard(parts[j][:0], &s.shards[lo+j], lo+j, p, s.salt)
		})
		for j, part := range parts[:window] {
			for c := 0; c < len(part); c += writeChunk {
				if _, err := w.Write(part[c:min(c+writeChunk, len(part))]); err != nil {
					return fail(err)
				}
				if err := cancelled(); err != nil {
					return fail(err)
				}
			}
			e := ht[headerBytes+(lo+j)*segTableEntry:]
			le.PutUint64(e[0:], off)
			le.PutUint64(e[8:], uint64(len(part)))
			e[16] = encPacked
			off += uint64(len(part))
		}
	}
	fillSegmentHeader(ht[:headerBytes], s, ht[headerBytes:], off)
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if _, err := f.WriteAt(ht, 0); err != nil {
		return fail(err)
	}
	if !nosync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := cancelled(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if nosync {
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
		pairs += hdr.size
	}
	if pairs != declaredPairs {
		return nil, fmt.Errorf("%w: %s: sections hold %d pairs, super-header declares %d",
			ErrBadGeometry, path, pairs, declaredPairs)
	}
	s.pairs = int(pairs)
	return s, nil
}
