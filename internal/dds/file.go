package dds

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Shard block format (version 1).
//
// One shard of a frozen store serializes as a block: the shard's flat index
// in little-endian — the same open-addressing slot positions and overflow
// slab the in-memory engine probes — so a reader decodes it record by record
// back into a shard whose probes take the writer's exact path. The records
// are 48-byte logical slots with full 64-bit words: they do not mirror the
// 28-byte in-memory slot, whose wide words spill to side tables, so
// encoders read every slot through key and first. A block is a raw section
// of a segment file (segment.go); a packed section (segcodec.go) is its
// varint form and decodes into the same shard.
//
//	header   64 bytes
//	  [0:8)    magic "AMPCSHRD"
//	  [8:12)   format version, uint32 (currently 1)
//	  [12:16)  shard index, uint32
//	  [16:20)  shard count, uint32
//	  [20:24)  reserved, zero
//	  [24:32)  placement salt, uint64
//	  [32:40)  pairs resident on this shard, uint64
//	  [40:48)  slot count, uint64 (a power of two, or 0 for an empty shard)
//	  [48:56)  slab value count, uint64
//	  [56:64)  checksum, uint64 over header[0:56] ++ payload
//	payload  slot count * 48-byte slot records, then slab count * 16-byte
//	         value records
//
//	slot record, 48 bytes
//	  [0:8)    key.A, int64     [8:16)   key.B, int64
//	  [16:24)  first.A, int64   [24:32)  first.B, int64
//	  [32:36)  count, int32     [36:40)  slab offset, int32
//	  [40]     key.Tag          [41:48)  reserved, zero
//
//	value record, 16 bytes: A int64, B int64
//
// Versioning rules: the magic never changes; any layout change (field moves,
// record sizes, checksum definition) bumps the version, and readers reject
// versions they do not know with ErrBadVersion. Reserved bytes are written
// as zero and ignored on read, so they are available to future versions only
// behind a version bump.
const (
	shardMagic    = "AMPCSHRD"
	shardVersion  = 1
	headerBytes   = 64
	slotBytes     = 48
	valueBytes    = 16
	checksumSeed  = 0x9e3779b97f4a7c15
	maxShardFiles = 1 << 20 // sanity cap on the shard count read from a header
)

// Typed errors returned when opening a serialized store. Use errors.Is; the
// returned errors wrap these sentinels with the offending path and detail.
var (
	// ErrBadMagic means the bytes do not start with the shard (or segment)
	// magic — they are not a shard block at all.
	ErrBadMagic = errors.New("dds: shard file: bad magic")
	// ErrBadVersion means the file declares a format version this reader
	// does not implement.
	ErrBadVersion = errors.New("dds: shard file: unsupported format version")
	// ErrTruncated means the file is shorter than its header or declared
	// payload.
	ErrTruncated = errors.New("dds: shard file: truncated")
	// ErrChecksum means the header+payload checksum does not match: the
	// bytes were corrupted after serialization.
	ErrChecksum = errors.New("dds: shard file: checksum mismatch")
	// ErrBadGeometry means the header fields are structurally inconsistent:
	// a non-power-of-two slot count, a shard index other than the expected
	// one, or a section table that does not tile its segment.
	ErrBadGeometry = errors.New("dds: shard file: inconsistent geometry")
)

var le = binary.LittleEndian

// checksum folds 8-byte little-endian words of the given byte slices through
// the store's SplitMix64 finalizer. The chain is order-sensitive, so moved or
// swapped records change the sum.
func checksum(parts ...[]byte) uint64 {
	h := uint64(checksumSeed)
	for _, p := range parts {
		for i := 0; i+8 <= len(p); i += 8 {
			h = mix(h ^ le.Uint64(p[i:]))
		}
	}
	return h
}

// shardBlockBytes returns the exact serialized size of one shard's block:
// header plus slot and slab records. Computable without serializing, which
// is what lets the segment writer lay out its section table up front and
// fill sections in parallel.
func shardBlockBytes(sh *shard) int {
	return headerBytes + len(sh.slots)*slotBytes + len(sh.slab)*valueBytes
}

// fillShardBlock serializes one shard into dst, which must be exactly
// shardBlockBytes(sh) long. Every byte of dst is written — reserved bytes
// explicitly zeroed, unclaimed slots as all-zero records (their in-memory
// bytes may be stale from a recycled table; occupancy lives in the bitmap)
// — so filling a recycled buffer from a recycled store is deterministic.
func fillShardBlock(dst []byte, sh *shard, index, count int, salt uint64) {
	off := headerBytes
	for i := range sh.slots {
		rec := dst[off : off+slotBytes]
		if !sh.occupied(uint64(i)) {
			clear(rec)
			off += slotBytes
			continue
		}
		sl := &sh.slots[i]
		k, v := sh.key(sl), sh.first(sl)
		le.PutUint64(rec[0:], uint64(k.A))
		le.PutUint64(rec[8:], uint64(k.B))
		le.PutUint64(rec[16:], uint64(v.A))
		le.PutUint64(rec[24:], uint64(v.B))
		le.PutUint32(rec[32:], uint32(sl.count))
		le.PutUint32(rec[36:], uint32(sl.off))
		rec[40] = k.Tag
		for j := 41; j < slotBytes; j++ {
			rec[j] = 0
		}
		off += slotBytes
	}
	for _, v := range sh.slab {
		rec := dst[off : off+valueBytes]
		le.PutUint64(rec[0:], uint64(v.A))
		le.PutUint64(rec[8:], uint64(v.B))
		off += valueBytes
	}
	h := dst[:headerBytes]
	clear(h)
	copy(h[0:8], shardMagic)
	le.PutUint32(h[8:], shardVersion)
	le.PutUint32(h[12:], uint32(index))
	le.PutUint32(h[16:], uint32(count))
	le.PutUint64(h[24:], salt)
	le.PutUint64(h[32:], uint64(sh.size))
	le.PutUint64(h[40:], uint64(len(sh.slots)))
	le.PutUint64(h[48:], uint64(len(sh.slab)))
	le.PutUint64(h[56:], checksum(h[0:56], dst[headerBytes:]))
}

// growBytes extends buf by n bytes, reusing spare capacity when available.
// The extension is not zeroed when recycled; callers overwrite every byte.
func growBytes(buf []byte, n int) []byte {
	if tot := len(buf) + n; tot <= cap(buf) {
		return buf[:tot]
	}
	return append(buf, make([]byte, n)...)
}

// blockHeader is what a decoder keeps of a shard block's 64-byte header.
type blockHeader struct {
	count       int    // shards in the store
	salt        uint64 // placement salt
	size        int    // pairs resident on this shard
	slots, slab uint64 // slot count, slab value count
}

// checkMagic is the first check of both section encodings: a whole header
// that starts with the shard magic.
func checkMagic(data []byte, path string) error {
	if len(data) < headerBytes {
		return fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrTruncated, path, len(data), headerBytes)
	}
	if string(data[0:8]) != shardMagic {
		return fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	return nil
}

// readBlockHeader checks the header fields both encodings declare alike —
// the version, the shard index and count, a slot count of 0 or a power of
// two — and returns them. Readers route by hash % count, so a zero count
// would divide by zero on the first read, and a shard outside its own store
// is never addressed.
func readBlockHeader(h []byte, path string, index int) (blockHeader, error) {
	hdr := blockHeader{
		count: int(le.Uint32(h[16:])),
		salt:  le.Uint64(h[24:]),
		size:  int(le.Uint64(h[32:])),
		slots: le.Uint64(h[40:]),
		slab:  le.Uint64(h[48:]),
	}
	if v := le.Uint32(h[8:]); v != shardVersion {
		return hdr, fmt.Errorf("%w: %s: version %d, reader implements %d", ErrBadVersion, path, v, shardVersion)
	}
	if got := int(le.Uint32(h[12:])); got != index {
		return hdr, fmt.Errorf("%w: %s: header says shard %d", ErrBadGeometry, path, got)
	}
	if hdr.count == 0 || hdr.count > maxShardFiles || index >= hdr.count {
		return hdr, fmt.Errorf("%w: %s: shard %d of a %d-shard store", ErrBadGeometry, path, index, hdr.count)
	}
	if hdr.slots&(hdr.slots-1) != 0 {
		return hdr, fmt.Errorf("%w: %s: slot count %d not a power of two", ErrBadGeometry, path, hdr.slots)
	}
	return hdr, nil
}

// alloc gives sh an all-clear table of slots entries and a slab of slab
// values for a decoder to fill.
func (sh *shard) alloc(slots, slab uint64) {
	sh.slots = make([]slot, slots)
	sh.bits = make([]uint64, bitWords(int(slots)))
	sh.slab = make([]Value, slab)
	sh.mask = max(slots, 1) - 1
}

// parseShardBlock decodes one raw shard block, exactly len(data) bytes, into
// sh. After the header, size and checksum checks, every slot record with a
// non-zero count becomes an occupied slot and the value records become the
// slab; then the structural validation both encodings share runs.
func parseShardBlock(sh *shard, data []byte, path string, index int) (blockHeader, error) {
	if err := checkMagic(data, path); err != nil {
		return blockHeader{}, err
	}
	hdr, err := readBlockHeader(data, path, index)
	if err != nil {
		return hdr, err
	}
	size := uint64(len(data))
	if hdr.slots > size || hdr.slab > size {
		return hdr, fmt.Errorf("%w: %s: %d bytes, header declares %d slots and %d slab values",
			ErrTruncated, path, size, hdr.slots, hdr.slab)
	}
	want := headerBytes + hdr.slots*slotBytes + hdr.slab*valueBytes
	if size < want {
		return hdr, fmt.Errorf("%w: %s: %d bytes, header declares %d", ErrTruncated, path, size, want)
	}
	if size > want {
		return hdr, fmt.Errorf("%w: %s: %d trailing bytes", ErrBadGeometry, path, size-want)
	}
	if sum := checksum(data[0:56], data[headerBytes:]); sum != le.Uint64(data[56:]) {
		return hdr, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	sh.alloc(hdr.slots, hdr.slab)
	recs := data[headerBytes:]
	for i := range sh.slots {
		rec := recs[i*slotBytes : (i+1)*slotBytes]
		cnt := int32(le.Uint32(rec[32:36]))
		if cnt == 0 {
			continue
		}
		sh.set(uint64(i), Key{Tag: rec[40], A: int64(le.Uint64(rec[0:8])), B: int64(le.Uint64(rec[8:16]))},
			Value{A: int64(le.Uint64(rec[16:24])), B: int64(le.Uint64(rec[24:32]))}, cnt, int32(le.Uint32(rec[36:40])))
		sh.claim(uint64(i))
	}
	vals := recs[len(sh.slots)*slotBytes:]
	for i := range sh.slab {
		rec := vals[i*valueBytes : (i+1)*valueBytes]
		sh.slab[i] = Value{A: int64(le.Uint64(rec[0:8])), B: int64(le.Uint64(rec[8:16]))}
	}
	return hdr, sh.finish(hdr, path)
}

// finish is the structural validation both encodings end with. A checksum
// only proves the bytes match what some writer computed — not that the
// writer was honest — so reads are made safe here: every occupied slot's
// slab window must lie inside the slab, the counts must sum to the declared
// pair count, and at least one slot must be empty or the linear probe for an
// absent key would never terminate. A shard that passes takes the declared
// pair count.
func (sh *shard) finish(hdr blockHeader, path string) error {
	occupied, total := 0, uint64(0)
	for wi, word := range sh.bits {
		for ; word != 0; word &= word - 1 {
			sl := &sh.slots[wi<<6|bits.TrailingZeros64(word)]
			occupied++
			if sl.count < 0 {
				return fmt.Errorf("%w: %s: negative slot count", ErrBadGeometry, path)
			}
			total += uint64(sl.count)
			if sl.count > 1 && (sl.off < 0 || uint64(sl.off)+uint64(sl.count-1) > hdr.slab) {
				return fmt.Errorf("%w: %s: slot slab window [%d, %d) outside slab of %d values",
					ErrBadGeometry, path, sl.off, uint64(sl.off)+uint64(sl.count-1), hdr.slab)
			}
		}
	}
	if occupied > 0 && occupied == len(sh.slots) {
		return fmt.Errorf("%w: %s: no empty slot, probes would not terminate", ErrBadGeometry, path)
	}
	if total != uint64(hdr.size) {
		return fmt.Errorf("%w: %s: slot counts sum to %d, header declares %d pairs",
			ErrBadGeometry, path, total, hdr.size)
	}
	sh.size = hdr.size
	return nil
}

// FilePublisher is a Publisher that writes every published store to a
// segment file behind the round that reads it. The frozen in-memory store
// itself is the backend the next round reads, exactly as on the mem backend;
// the segment is the generation's durable copy, which OpenSegment (or a
// shard server's OpenSection) reads back.
//
// Publishing is write-behind: Publish hands the frozen store to a background
// goroutine that serializes it through a reused buffer and renames the
// segment into place while the caller's next round executes against the same
// store, and returns the store. Barrier joins the write. Each section is
// packed where that is smaller and raw otherwise (see segcodec.go).
//
// Disk holds at most two segments: the newest complete one, which always
// stays, and the one being written. A superseded segment is deleted
// off-thread, by the next write's goroutine or by Close. The latest segment
// survives Close when the caller supplied the directory.
type FilePublisher struct {
	mu        sync.Mutex
	dir       string          // the caller's directory until the first Publish, then the run-* directory
	owned     bool            // the run directory sits under the shared temp parent and is removed on Close
	ready     bool            // dir is the created, locked run directory
	ctx       context.Context // optional; cancels in-flight write-behind publishes
	buf       []byte          // reused segment serialization buffer
	inflight  chan error      // the write-behind publish not yet joined; yields its outcome
	latest    string          // newest complete segment
	garbage   []string        // superseded segments awaiting off-thread deletion
	lock      *fileLock       // liveness lock inside the run directory
	closed    chan struct{}   // closed by Close; aborts in-flight writes
	closeOnce sync.Once
}

// NewFilePublisher returns a publisher writing segment files into a unique
// run-* subdirectory of dir, so concurrent or repeated runs sharing a store
// directory never write over each other's live segments, and each run's
// final segment survives in its own run directory. An empty dir selects the
// shared temporary parent (os.TempDir()/ampc-dds) instead, and the run
// directory there is removed when the publisher is closed. Either way the
// first Publish sweeps the parent for run directories left by crashed runs
// (liveness decided by a file lock each live publisher holds). The
// filesystem is not touched until the first Publish, so construction never
// fails.
func NewFilePublisher(dir string) *FilePublisher {
	return &FilePublisher{dir: dir, closed: make(chan struct{})}
}

// SetContext attaches a cancellation context: an in-flight write-behind
// publish aborts between write chunks once ctx is done, removing its temp
// file, and the cancellation surfaces from the next Barrier or Publish.
// Call before the first Publish.
func (p *FilePublisher) SetContext(ctx context.Context) { p.ctx = ctx }

// InFlight reports whether a write-behind publish has not yet been joined —
// the condition under which the next Barrier call would actually block. The
// runtime uses it to skip the per-round barrier (and its clock reads)
// entirely on rounds with nothing pending.
func (p *FilePublisher) InFlight() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight != nil
}

// Dir returns the run directory the segments go to (empty until the first
// Publish when the publisher owns a temporary directory).
func (p *FilePublisher) Dir() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir
}

// cancelled reports why an in-flight write must abort, or nil.
func (p *FilePublisher) cancelled() error {
	select {
	case <-p.closed:
		return errPublishCancelled
	default:
	}
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runLockName is the liveness lock file each live publisher holds (flock)
// inside its run directory. A run directory whose lock can be acquired has
// no live owner — a crashed prior run — and is swept, temp files and all.
const runLockName = ".lock"

// ensureDir lazily creates this publisher's run-* directory under the
// caller's directory or the shared temporary parent; p.mu held. Creation and
// sweeping serialize on a parent-level lock so a sweeper can never catch a
// sibling publisher between creating its run directory and locking it.
func (p *FilePublisher) ensureDir() error {
	if p.ready {
		return nil
	}
	parent := p.dir
	if parent == "" {
		parent, p.owned = filepath.Join(os.TempDir(), "ampc-dds"), true
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	gate, gateErr := acquireFileLock(filepath.Join(parent, ".ampc-dir.lock"), true)
	if gateErr == nil {
		sweepStaleRuns(parent, !p.owned)
	}
	run, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		if gateErr == nil {
			gate.release()
		}
		return err
	}
	if lk, err := acquireFileLock(filepath.Join(run, runLockName), false); err == nil {
		p.lock = lk
	}
	if gateErr == nil {
		gate.release()
	}
	p.dir = run
	p.ready = true
	return nil
}

// sweepStaleRuns cleans up after crashed prior runs sharing parent: any run
// directory whose liveness lock is acquirable has no live owner, and
// sweepStaleRun prunes it — keeping its newest segment when keepNewest (a
// caller's directory, where a run's latest complete store is its product)
// and removing it entirely otherwise (the shared temporary parent, where
// nobody can name a dead run). Stray temp files in parent go too. Held locks
// (live runs) and platforms without file locking leave entries alone.
func sweepStaleRuns(parent string, keepNewest bool) {
	entries, err := os.ReadDir(parent)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			if strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(parent, name))
			}
			continue
		}
		if !strings.HasPrefix(name, "run-") {
			continue
		}
		dir := filepath.Join(parent, name)
		lk, err := acquireFileLock(filepath.Join(dir, runLockName), false)
		if err != nil {
			continue // held by a live run, or locking unsupported
		}
		sweepStaleRun(dir, keepNewest)
		lk.release()
	}
}

// sweepStaleRun prunes one ownerless run directory; the caller holds its
// liveness lock. With keepNewest, its leftover temp files and superseded
// segments — files the run would have deleted itself had it kept going — are
// removed and the newest segment stays; a run holding no segment at all, or
// any run without keepNewest, is removed entirely.
func sweepStaleRun(dir string, keepNewest bool) {
	if !keepNewest {
		os.RemoveAll(dir)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	segs := map[uint64]string{}
	newest, haveSeg := uint64(0), false
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var seq uint64
		if n, err := fmt.Sscanf(name, segFileFmt, &seq); n == 1 && err == nil {
			segs[seq] = name
			if !haveSeg || seq > newest {
				newest, haveSeg = seq, true
			}
		}
	}
	if !haveSeg {
		os.RemoveAll(dir)
		return
	}
	for seq, name := range segs {
		if seq != newest {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// drainGarbage deletes superseded segments. Called from the background
// writer goroutine before each write (overlapping the caller's execute
// phase) and from Close: unlinking a segment can cost real time (block
// discard on some filesystems) and must not extend the round's synchronous
// publish phase.
func (p *FilePublisher) drainGarbage() {
	p.mu.Lock()
	g := p.garbage
	p.garbage = nil
	p.mu.Unlock()
	for _, path := range g {
		os.Remove(path)
	}
}

// Publish installs store seq: it starts the segment write on a background
// goroutine and returns s itself as the backend. The write reads s until the
// next Publish, Barrier or Close returns, each of which joins it.
func (p *FilePublisher) Publish(seq int, s *Store) (StoreBackend, error) {
	if err := p.Barrier(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		return nil, errPublishCancelled
	default:
	}
	if err := p.ensureDir(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	path := filepath.Join(p.dir, fmt.Sprintf(segFileFmt, seq))
	done := make(chan error, 1)
	buf := p.buf
	p.buf, p.inflight = nil, done
	p.mu.Unlock()
	go func() { done <- p.write(path, s, buf) }()
	return s, nil
}

// write is the background writer: one publish, one goroutine, joined by
// Barrier (or Publish/Close) through the inflight channel. Mid-run
// generations skip fsync (segOpts.nosync): they are superseded within
// rounds; the surviving segment is made durable once, at Close. A complete
// segment becomes the latest and queues the one it supersedes for deletion.
func (p *FilePublisher) write(path string, s *Store, buf []byte) error {
	p.drainGarbage()
	buf, err := writeSegment(s, path, buf, segOpts{compress: true, nosync: true}, p.cancelled)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = buf // return the serialization buffer for the next publish
	if err == nil {
		if p.latest != "" && p.latest != path {
			p.garbage = append(p.garbage, p.latest)
		}
		p.latest = path
	}
	return err
}

// Barrier joins the in-flight write-behind publish: it blocks until the
// segment is complete (written and atomically renamed into place; the fsync
// is deferred to Close — see segOpts.nosync) and returns a write failure or
// cancellation once.
func (p *FilePublisher) Barrier() error {
	p.mu.Lock()
	done := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if done == nil {
		return nil
	}
	return <-done
}

// Close aborts any in-flight publish (its temp file is removed; a segment
// that already became durable is kept as the latest) and removes the run
// directory when it sits under the shared temporary parent; in a
// caller-supplied directory the run directory is left in place with the
// latest segment, fsynced.
func (p *FilePublisher) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	p.mu.Lock()
	done := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if done != nil {
		<-done
	}
	p.drainGarbage()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lock != nil {
		p.lock.release()
		p.lock = nil
	}
	if p.owned && p.dir != "" {
		err := os.RemoveAll(p.dir)
		p.dir, p.ready, p.owned = "", false, false
		return err
	}
	// Write-behind publishes skipped their per-segment fsync; in a
	// caller-supplied directory the surviving store is the run's product,
	// so make it durable now.
	var err error
	if p.latest != "" {
		if err = syncPath(p.latest); os.IsNotExist(err) {
			err = nil
		}
		if serr := syncDir(filepath.Dir(p.latest)); err == nil {
			err = serr
		}
	}
	return err
}
