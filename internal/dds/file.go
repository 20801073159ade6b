package dds

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Shard block format (version 1).
//
// One shard of a frozen store serializes as a block: the shard's flat index
// written verbatim in little-endian — the same open-addressing slot array and
// overflow slab the in-memory engine probes — so the mmap'd read path runs
// the identical probe sequence over the mapped bytes with no deserialization
// step. A block is a raw section of a segment file (segment.go), and what
// every packed or delta section decodes back to.
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
		le.PutUint64(rec[0:], uint64(sl.key.A))
		le.PutUint64(rec[8:], uint64(sl.key.B))
		le.PutUint64(rec[16:], uint64(sl.first.A))
		le.PutUint64(rec[24:], uint64(sl.first.B))
		le.PutUint32(rec[32:], uint32(sl.count))
		le.PutUint32(rec[36:], uint32(sl.off))
		rec[40] = sl.key.Tag
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

// fileShard is one shard of a FileStore: the serialized slot array and slab,
// probed in place over the mapped bytes.
type fileShard struct {
	slots []byte // slotCount * slotBytes
	mask  uint64
	slab  []byte // slabCount * valueBytes
	size  int
	load  atomic.Int64
}

// findOff returns the byte offset of the slot holding k within the shard's
// slot region, or -1. Identical probe sequence to the in-memory shard. The
// slot region is hoisted into a local and every record is re-sliced with an
// explicit capacity so the per-probe field loads compile to single bounded
// reads — this probe is the whole cost of a file-backed Get and must stay
// at parity with the in-memory index.
func (sh *fileShard) findOff(k Key, h uint64) int {
	slots := sh.slots
	if len(slots) == 0 {
		return -1
	}
	ka, kb := uint64(k.A), uint64(k.B)
	i := (h >> 32) & sh.mask
	for {
		off := int(i) * slotBytes
		rec := slots[off : off+slotBytes : off+slotBytes]
		if le.Uint32(rec[32:36]) == 0 {
			return -1
		}
		if le.Uint64(rec[0:8]) == ka && le.Uint64(rec[8:16]) == kb && rec[40] == k.Tag {
			return off
		}
		i = (i + 1) & sh.mask
	}
}

// count returns the value count of the slot record at byte offset off.
func (sh *fileShard) count(off int) int {
	return int(int32(le.Uint32(sh.slots[off+32:])))
}

// value returns the i-th (0-based) value of the slot record at offset off.
func (sh *fileShard) value(off, i int) Value {
	if i == 0 {
		rec := sh.slots[off+16 : off+32 : off+32]
		return Value{A: int64(le.Uint64(rec[0:8])), B: int64(le.Uint64(rec[8:16]))}
	}
	slabOff := int(int32(le.Uint32(sh.slots[off+36:])))
	rec := sh.slab[(slabOff+i-1)*valueBytes:]
	return Value{A: int64(le.Uint64(rec[0:])), B: int64(le.Uint64(rec[8:]))}
}

// FileStore is a StoreBackend reading a serialized store from an mmap'd
// segment file. All read methods are safe for concurrent use and account
// per-shard load exactly like the in-memory store.
type FileStore struct {
	shards []fileShard
	salt   uint64
	pairs  int
	// sections holds each shard's raw block bytes in shard order — views
	// into the mapping for raw sections, decode buffers for packed and
	// delta ones. They are what a
	// later generation's delta sections encode against.
	sections [][]byte
	unmaps   []func() error
	cleanup  func() error // optional, run after unmapping (e.g. remove dir)
}

// shardHeader carries one decoded shard block.
type shardHeader struct {
	count int
	salt  uint64
	size  int
	slots []byte
	mask  uint64
	slab  []byte
}

// parseShardBlock decodes one raw shard block — a section as it lies in a
// segment, or as a packed or delta section decodes — validating magic,
// version and geometry against exactly len(data) bytes. Verification comes
// in two parts: verifySum re-folds the raw block checksum; verifyScan runs
// the structural slot-table scan that makes probing safe. Both off is the
// trusted fast path for bytes this process serialized itself moments ago.
// They separate for packed sections, whose integrity was already checked
// against the packed bytes received — a verifying open still needs the scan
// (a checksum anyone can recompute proves nothing about slab windows), but
// the decoded block's checksum word holds the packed sum, not a raw sum.
func parseShardBlock(data []byte, path string, index int, verifySum, verifyScan bool) (shardHeader, error) {
	var hdr shardHeader
	size := int64(len(data))
	if size < headerBytes {
		return hdr, fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrTruncated, path, size, headerBytes)
	}
	h := data[:headerBytes]
	if string(h[0:8]) != shardMagic {
		return hdr, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	if v := le.Uint32(h[8:]); v != shardVersion {
		return hdr, fmt.Errorf("%w: %s: version %d, reader implements %d", ErrBadVersion, path, v, shardVersion)
	}
	if got := int(le.Uint32(h[12:])); got != index {
		return hdr, fmt.Errorf("%w: %s: header says shard %d", ErrBadGeometry, path, got)
	}
	hdr.count = int(le.Uint32(h[16:]))
	// Readers route by hash % count, so a zero count would divide by zero on
	// the first read, and a shard outside its own store is never addressed.
	if hdr.count == 0 || hdr.count > maxShardFiles || index >= hdr.count {
		return hdr, fmt.Errorf("%w: %s: shard %d of a %d-shard store", ErrBadGeometry, path, index, hdr.count)
	}
	hdr.salt = le.Uint64(h[24:])
	hdr.size = int(le.Uint64(h[32:]))
	slotCount := le.Uint64(h[40:])
	slabCount := le.Uint64(h[48:])
	if slotCount&(slotCount-1) != 0 { // 0 or a power of two
		return hdr, fmt.Errorf("%w: %s: slot count %d not a power of two", ErrBadGeometry, path, slotCount)
	}
	if slotCount > uint64(size) || slabCount > uint64(size) {
		return hdr, fmt.Errorf("%w: %s: %d bytes, header declares %d slots and %d slab values",
			ErrTruncated, path, size, slotCount, slabCount)
	}
	want := int64(headerBytes) + int64(slotCount)*slotBytes + int64(slabCount)*valueBytes
	if size < want {
		return hdr, fmt.Errorf("%w: %s: %d bytes, header declares %d", ErrTruncated, path, size, want)
	}
	if size > want {
		return hdr, fmt.Errorf("%w: %s: %d trailing bytes", ErrBadGeometry, path, size-want)
	}
	if verifySum {
		if sum := checksum(h[0:56], data[headerBytes:]); sum != le.Uint64(h[56:]) {
			return hdr, fmt.Errorf("%w: %s", ErrChecksum, path)
		}
	}
	hdr.slots = data[headerBytes : headerBytes+int(slotCount)*slotBytes]
	if slotCount > 0 {
		hdr.mask = slotCount - 1
	}
	hdr.slab = data[headerBytes+int(slotCount)*slotBytes:]
	if !verifyScan {
		return hdr, nil
	}

	// Structural validation of the slot table. A checksum only proves the
	// bytes match what some writer computed — it does not prove the writer
	// was honest — so reads must be made safe here: every occupied slot's
	// slab window must lie inside the slab, the counts must sum to the
	// declared pair count, and at least one slot must be empty or the
	// linear probe for an absent key would never terminate.
	occupied, total := uint64(0), uint64(0)
	for off := 0; off < len(hdr.slots); off += slotBytes {
		cnt := int32(le.Uint32(hdr.slots[off+32:]))
		if cnt == 0 {
			continue
		}
		occupied++
		if cnt < 0 {
			return hdr, fmt.Errorf("%w: %s: negative slot count", ErrBadGeometry, path)
		}
		total += uint64(cnt)
		if cnt > 1 {
			so := int32(le.Uint32(hdr.slots[off+36:]))
			if so < 0 || uint64(so)+uint64(cnt-1) > slabCount {
				return hdr, fmt.Errorf("%w: %s: slot slab window [%d, %d) outside slab of %d values",
					ErrBadGeometry, path, so, uint64(so)+uint64(cnt-1), slabCount)
			}
		}
	}
	if occupied > 0 && occupied == slotCount {
		return hdr, fmt.Errorf("%w: %s: no empty slot, probes would not terminate", ErrBadGeometry, path)
	}
	if total != uint64(hdr.size) {
		return hdr, fmt.Errorf("%w: %s: slot counts sum to %d, header declares %d pairs",
			ErrBadGeometry, path, total, hdr.size)
	}
	return hdr, nil
}

// Salt returns the placement salt recorded in the shard headers.
func (s *FileStore) Salt() uint64 { return s.salt }

// Close unmaps the segment file and runs the cleanup hook, if any. The store
// must not be read afterwards.
func (s *FileStore) Close() error {
	var errs []error
	for _, unmap := range s.unmaps {
		errs = append(errs, unmap())
	}
	s.unmaps = nil
	s.shards = nil
	if s.cleanup != nil {
		errs = append(errs, s.cleanup())
		s.cleanup = nil
	}
	return errors.Join(errs...)
}

// shardFor returns the shard owning key k and its hash, counting n queries
// against it. Like the in-memory store, reads keep the hardware modulo: it
// sits on the shard pointer's critical path, where it beats the multiply
// reduction.
func (s *FileStore) shardFor(k Key, n int64) (*fileShard, uint64) {
	h := hash(k, s.salt)
	sh := &s.shards[h%uint64(len(s.shards))]
	sh.load.Add(n)
	return sh, h
}

// Get returns the value stored under k (index 0 of a duplicated key).
func (s *FileStore) Get(k Key) (Value, bool) {
	sh, h := s.shardFor(k, 1)
	off := sh.findOff(k, h)
	if off < 0 {
		return Value{}, false
	}
	return sh.value(off, 0), true
}

// GetIndexed returns the i-th (0-based) value stored under k.
func (s *FileStore) GetIndexed(k Key, i int) (Value, bool) {
	sh, h := s.shardFor(k, 1)
	off := sh.findOff(k, h)
	if off < 0 || i < 0 || i >= sh.count(off) {
		return Value{}, false
	}
	return sh.value(off, i), true
}

// GetRange appends the values stored under k at indices [lo, hi) to dst,
// charging the shard hi-lo queries but probing the key once — identical
// semantics and contention accounting to the in-memory store.
func (s *FileStore) GetRange(k Key, lo, hi int, dst []Value) []Value {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return dst
	}
	sh, h := s.shardFor(k, int64(hi-lo))
	off := sh.findOff(k, h)
	if off < 0 {
		return dst
	}
	if n := sh.count(off); hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, sh.value(off, i))
	}
	return dst
}

// Count returns the number of pairs stored under k.
func (s *FileStore) Count(k Key) int {
	sh, h := s.shardFor(k, 1)
	off := sh.findOff(k, h)
	if off < 0 {
		return 0
	}
	return sh.count(off)
}

// Len returns the total number of pairs in the store.
func (s *FileStore) Len() int { return s.pairs }

// Shards returns the number of DDS machines backing the store.
func (s *FileStore) Shards() int { return len(s.shards) }

// ShardSizes returns the number of pairs resident on each shard.
func (s *FileStore) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i := range s.shards {
		sizes[i] = s.shards[i].size
	}
	return sizes
}

// ShardLoads returns a copy of the per-shard query counters.
func (s *FileStore) ShardLoads() []int64 {
	loads := make([]int64, len(s.shards))
	for i := range s.shards {
		loads[i] = s.shards[i].load.Load()
	}
	return loads
}

// MaxShardLoad returns the largest per-shard query count.
func (s *FileStore) MaxShardLoad() int64 {
	var max int64
	for i := range s.shards {
		if l := s.shards[i].load.Load(); l > max {
			max = l
		}
	}
	return max
}

// ResetLoads zeroes the per-shard counters.
func (s *FileStore) ResetLoads() {
	for i := range s.shards {
		s.shards[i].load.Store(0)
	}
}

// FilePublisher is a Publisher that serializes every published store into a
// segment file and reads it back through mmap — the bridge from in-process
// simulation toward a DDS that actually lives outside the round's address
// space.
//
// Publishing is write-behind by default: Publish hands the frozen store to a
// background goroutine that serializes it through a reused buffer, fsyncs
// the segment and its directory, and renames it into place — all while the
// caller's next round executes against the still-in-memory store. Barrier
// joins the in-flight write; once the segment is durable the published
// backend atomically swaps its reads to the mmap'd file and releases the
// in-memory arrays into the publisher's Arena for the next freeze to
// recycle. SetSync(true) restores fully synchronous publishing (serialize,
// fsync, mmap before Publish returns), which is also the mode whose reads
// exercise the mmap path for the whole round.
//
// Retired stores are deleted when the runtime closes their backend, so disk
// usage stays bounded by the newest durable segment plus the one being
// written (plus the base a delta-encoded latest still reads from); the
// latest segment is kept until the publisher itself is closed, and survives
// it when the caller supplied the directory.
//
// Segments compress on the way down by default (packed sections, plus delta
// sections against the previous generation when the placement salts match —
// see segcodec.go). Compression never changes read results: packed and
// delta sections decode to the exact raw block bytes at open.
// SetDropRetired(true) selects the bounded-residency mode for out-of-core
// runs: the runtime barriers before each execute, so adaptive reads serve
// from the mmap'd segment (page cache, reclaimable under memory pressure)
// and the retired in-memory store returns to the arena a round earlier —
// resident memory is O(the generation being written), not O(two).
type FilePublisher struct {
	mu          sync.Mutex
	dir         string // base directory; lazily created on first Publish
	owned       bool   // dir was auto-created (temp) and is removed on Close
	ready       bool
	sync        bool            // publish in the foreground; reads go straight to mmap
	compress    bool            // encode packed/delta sections where they win
	drop        bool            // barrier before execute; mem store dropped after publish
	ctx         context.Context // optional; cancels in-flight write-behind publishes
	arena       *Arena          // optional; receives swapped-out in-memory stores
	run         Parallel        // optional; schedules sync-mode section fills
	buf         []byte          // reused segment serialization buffer
	inflight    *pendingStore   // the write-behind publish not yet joined
	segs        map[string]*segState
	latest      string        // newest durable segment
	latestSeq   uint64        // its sequence number (base naming for delta sections)
	latestSalt  uint64        // its placement salt (delta engages only on a match)
	latestDelta bool          // it holds delta sections (cannot serve as a base)
	garbage     []string      // retired segments awaiting off-thread deletion
	lock        *fileLock     // liveness lock inside the run directory
	closed      chan struct{} // closed by Close; aborts in-flight writes
	closeOnce   sync.Once
}

// segState tracks one durable segment's lifetime: it stays on disk while a
// backend still reads it, while it is the latest generation, or while a
// newer delta-encoded segment decodes against it.
type segState struct {
	open bool   // a published backend still serves this segment
	base string // segment whose sections this file's delta sections copy from
}

// NewFilePublisher returns a publisher writing segment files under dir. An
// empty dir selects a fresh temporary directory that is removed when the
// publisher is closed; a caller-supplied dir receives a unique run-*
// subdirectory per publisher, so concurrent or repeated runs sharing a
// store directory never write over each other's live segments, and each
// run's final segment survives in its own run directory. Orphaned run
// directories left by crashed prior runs are swept on the first Publish
// (liveness decided by a file lock each live publisher holds). The
// filesystem is not touched until the first Publish, so construction never
// fails.
func NewFilePublisher(dir string) *FilePublisher {
	return &FilePublisher{
		dir:      dir,
		compress: true,
		segs:     make(map[string]*segState),
		closed:   make(chan struct{}),
	}
}

// SetSync selects synchronous publishing: Publish serializes, fsyncs and
// mmaps the segment before returning, instead of write-behind. Call before
// the first Publish.
func (p *FilePublisher) SetSync(sync bool) { p.sync = sync }

// SetDropRetired selects the bounded-residency mode: the runtime barriers
// before each execute (see BarrierBeforeExecute), so reads come from the
// mmap'd segment and each round's in-memory store is recycled as soon as its
// segment is durable instead of serving one more round from the heap. Call
// before the runtime is constructed.
func (p *FilePublisher) SetDropRetired(drop bool) { p.drop = drop }

// BarrierBeforeExecute makes the runtime join the previous publish before
// executing a round when the drop-retired residency mode is on — the same
// contract a networked publisher declares, here so adaptive reads genuinely
// leave the round's address space and hit the file mapping.
func (p *FilePublisher) BarrierBeforeExecute() bool { return p.drop }

// SetContext attaches a cancellation context: an in-flight write-behind
// publish aborts between write chunks once ctx is done, removing its temp
// file, and the cancellation surfaces from the next Barrier or Publish.
// Call before the first Publish.
func (p *FilePublisher) SetContext(ctx context.Context) { p.ctx = ctx }

// SetArena gives the publisher an arena to recycle swapped-out in-memory
// stores into. Call before the first Publish.
func (p *FilePublisher) SetArena(a *Arena) { p.arena = a }

// SetParallel installs the scheduler used for per-shard section fills when
// publishing synchronously — the AMPC runtime passes its pinned worker-pool
// scheduler, so the worker that built a shard's index also serializes its
// section. Write-behind publishes ignore it: their fills run on the
// background writer while those pool workers are busy executing the next
// round, and borrowing them would serialize the publish behind the execute
// phase it is meant to overlap. Call before the first Publish.
func (p *FilePublisher) SetParallel(run Parallel) { p.run = run }

// InFlight reports whether a write-behind publish has not yet been joined —
// the condition under which the next Barrier call would actually block or
// swap anything. The runtime uses it to skip the per-round barrier (and its
// clock reads) entirely on rounds with nothing pending.
func (p *FilePublisher) InFlight() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight != nil
}

// Dir returns the base directory (empty until the first Publish when the
// publisher owns a temporary directory).
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

// ensureDir lazily creates the base (or run-*) directory; p.mu held. In a
// caller-supplied directory, creation and sweeping serialize on a
// parent-level lock so a sweeper can never catch a sibling publisher between
// creating its run directory and locking it.
func (p *FilePublisher) ensureDir() error {
	if p.ready {
		return nil
	}
	if p.dir == "" {
		tmp, err := os.MkdirTemp("", "ampc-dds-")
		if err != nil {
			return err
		}
		p.dir, p.owned = tmp, true
		p.ready = true
		return nil
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	gate, gateErr := acquireFileLock(filepath.Join(p.dir, ".ampc-dir.lock"), true)
	if gateErr == nil {
		sweepStaleRuns(p.dir)
	}
	run, err := os.MkdirTemp(p.dir, "run-")
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
// directory whose liveness lock is acquirable has no live owner, so its
// leftover temp files and superseded segments — files the run would have
// deleted itself had it kept going — are removed. The newest durable
// segment (and the base segment its delta sections may read from) is kept,
// preserving the contract that a run's latest complete store survives; a
// stale run directory holding no durable segment at all is removed
// entirely. Held locks (live runs) and platforms without file locking leave
// entries alone.
func sweepStaleRuns(parent string) {
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
		sweepStaleRun(dir)
		lk.release()
	}
}

// sweepStaleRun prunes one ownerless run directory; the caller holds its
// liveness lock.
func sweepStaleRun(dir string) {
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
	keep := map[uint64]bool{newest: true}
	if base, ok := segmentBaseSeq(filepath.Join(dir, segs[newest])); ok {
		keep[base] = true
	}
	for seq, name := range segs {
		if !keep[seq] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// segmentBaseSeq reads the delta base sequence out of a segment file's
// super-header, reporting false when the file is not a readable segment of
// this version or is self-contained.
func segmentBaseSeq(path string) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	h := make([]byte, headerBytes)
	if _, err := io.ReadFull(f, h); err != nil {
		return 0, false
	}
	if string(h[0:8]) != segmentMagic || le.Uint32(h[8:]) != segmentVersion {
		return 0, false
	}
	base := le.Uint64(h[40:])
	return base, base != noBaseSeq
}

// release retires one published segment: its backend closed, so it may be
// deleted once nothing else needs it. Deletion is deferred to the garbage
// queue, drained off the driver thread — unlinking a retired segment can
// cost real time (block discard on some filesystems) and must not extend the
// round's synchronous publish phase.
func (p *FilePublisher) release(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.segs[path]; st != nil {
		st.open = false
		p.tryRetire(path)
	}
	return nil
}

// tryRetire queues path for deletion unless it is still needed: the newest
// durable generation always stays (disk always holds the latest complete
// store), as does any segment a backend still reads or a durable delta
// segment decodes against. Retiring a delta segment unpins its base, which
// is then retried in turn; p.mu held.
func (p *FilePublisher) tryRetire(path string) {
	st := p.segs[path]
	if st == nil || st.open || path == p.latest {
		return
	}
	for _, other := range p.segs {
		if other.base == path {
			return
		}
	}
	delete(p.segs, path)
	p.garbage = append(p.garbage, path)
	if st.base != "" {
		p.tryRetire(st.base)
	}
}

// recordDurable marks path as the newest durable segment — with the
// sequence, salt and delta-dependency facts the next publish's encoding
// decision needs — and retires the generation it supersedes; p.mu held.
func (p *FilePublisher) recordDurable(path string, seq uint64, salt uint64, base string) {
	p.segs[path] = &segState{open: true, base: base}
	old := p.latest
	p.latest, p.latestSeq, p.latestSalt, p.latestDelta = path, seq, salt, base != ""
	if old != "" && old != path {
		p.tryRetire(old)
	}
}

// deltaBase decides the delta-encoding options for publishing store s as
// sequence seq: the newest durable segment serves as base iff compression is
// on, it is itself self-contained (chains are one level), and its placement
// salt matches — without a salt match no slot lands at the same offset and a
// delta could never win. The base reopens trusted (this process wrote and
// verified it); the caller owns closing opts.base. p.mu held.
func (p *FilePublisher) deltaBase(s *Store) (o segOpts, basePath string) {
	o.compress = p.compress
	if !p.compress || p.latest == "" || p.latestDelta || p.latestSalt != s.salt {
		return o, ""
	}
	base, err := openSegmentDepth(p.latest, false, false)
	if err != nil {
		return o, ""
	}
	o.base, o.baseSeq = base, p.latestSeq
	return o, p.latest
}

// drainGarbage deletes retired segments queued by release. Called from the
// background writer goroutine before each write (overlapping the caller's
// execute phase) and from Close.
func (p *FilePublisher) drainGarbage() {
	p.mu.Lock()
	g := p.garbage
	p.garbage = nil
	p.mu.Unlock()
	for _, path := range g {
		os.Remove(path)
	}
}

// Publish installs store seq. In write-behind mode (the default) it returns
// immediately with a backend reading the in-memory store while the segment
// serializes in the background; in sync mode it returns the mmap'd segment.
// Publish takes ownership of s: after a successful Publish the caller must
// read only through the returned backend, because s's arrays may be
// recycled into a later store once the segment is durable.
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
	o, basePath := p.deltaBase(s)
	if p.sync {
		buf, st, err := writeSegment(s, path, p.buf, o, p.cancelled, p.run)
		p.buf = buf
		if o.base != nil {
			o.base.Close()
		}
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		fs, err := openSegment(path, false)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if !st.usedDelta {
			basePath = ""
		}
		p.recordDurable(path, uint64(seq), s.salt, basePath)
		p.mu.Unlock()
		p.drainGarbage()
		fs.cleanup = func() error { return p.release(path) }
		p.arena.Recycle(s)
		return fs, nil
	}
	// Mid-run generations skip fsync (segOpts.nosync): they are read
	// through the page cache and superseded within rounds; the surviving
	// segment is made durable once, at Close.
	o.nosync = true
	ps := &pendingStore{pub: p, path: path, mem: s, seq: uint64(seq), opts: o, basePath: basePath, done: make(chan struct{})}
	ps.store(s)
	buf := p.buf
	p.buf, p.inflight = nil, ps
	p.mu.Unlock()
	go ps.run(buf)
	return ps, nil
}

// Barrier joins the in-flight write-behind publish: it blocks until the
// segment is complete (written and atomically renamed into place; the fsync
// is deferred to Close — see segOpts.nosync). When the swap onto the segment
// pays — drop-retired residency needs the file to serve reads after the
// in-memory store is dropped, and an all-raw segment serves straight from
// the mapping so the arrays recycle for free — reads move to the mmap'd
// segment and the in-memory store returns to the arena. A compressed
// segment under retained residency skips the swap: opening it would decode
// every packed section onto the heap just to replace the equivalent store
// already in memory, so the frozen store keeps serving and the segment is
// purely the durable artifact. A write failure or cancellation is returned
// once, and the backend keeps serving from memory so reads stay correct
// while the error surfaces.
func (p *FilePublisher) Barrier() error {
	p.mu.Lock()
	ps := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if ps == nil {
		return nil
	}
	<-ps.done
	if ps.err != nil {
		return ps.err
	}
	if !p.drop && !ps.mapped {
		return nil
	}
	fs, err := openSegment(ps.path, false)
	if err != nil {
		return err
	}
	fs.cleanup = func() error { return p.release(ps.path) }
	ps.swap(fs, p.arena)
	return nil
}

// Close aborts any in-flight publish (its temp file is removed; a segment
// that already became durable is kept as the latest) and removes the base
// directory when the publisher created it itself; a caller-supplied
// directory is left in place with the latest segment.
func (p *FilePublisher) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	p.mu.Lock()
	ps := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if ps != nil {
		<-ps.done
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
	// so make it (and the base a delta-encoded survivor decodes against)
	// durable now.
	var err error
	if p.latest != "" {
		paths := []string{p.latest}
		if st := p.segs[p.latest]; st != nil && st.base != "" {
			paths = append(paths, st.base)
		}
		for _, path := range paths {
			if serr := syncPath(path); serr != nil && !os.IsNotExist(serr) && err == nil {
				err = serr
			}
		}
		if serr := syncDir(filepath.Dir(p.latest)); err == nil {
			err = serr
		}
	}
	return err
}

// pendingStore is the backend returned by a write-behind Publish. Reads are
// served by the frozen in-memory store while the segment file is written in
// the background; once Barrier observes the write durable, reads swap
// atomically to the mmap'd segment and the in-memory arrays are recycled.
type pendingStore struct {
	inner    atomic.Pointer[StoreBackend]
	mem      *Store // retained until the swap
	path     string
	seq      uint64
	opts     segOpts // encoding decision made at Publish; opts.base owned here
	basePath string  // opts.base's path, recorded as a pin iff delta engaged
	pub      *FilePublisher
	done     chan struct{} // closed when the background write finishes
	err      error         // write outcome; read only after done
	mapped   bool          // all sections raw: an open serves from the mmap; after done
}

// run is the background writer: one publish, one goroutine, joined by
// Barrier (or Publish/Close) through ps.done.
func (ps *pendingStore) run(buf []byte) {
	ps.pub.drainGarbage()
	buf, st, err := writeSegment(ps.mem, ps.path, buf, ps.opts, ps.pub.cancelled, nil)
	if ps.opts.base != nil {
		ps.opts.base.Close()
		ps.opts.base = nil
	}
	ps.err = err
	ps.mapped = st.allRaw
	p := ps.pub
	p.mu.Lock()
	p.buf = buf // return the serialization buffer for the next publish
	if err == nil {
		base := ps.basePath
		if !st.usedDelta {
			base = ""
		}
		p.recordDurable(ps.path, ps.seq, ps.mem.salt, base)
	}
	p.mu.Unlock()
	close(ps.done)
}

func (ps *pendingStore) store(b StoreBackend)  { ps.inner.Store(&b) }
func (ps *pendingStore) backend() StoreBackend { return *ps.inner.Load() }

// swap redirects reads to the mmap'd segment and hands the in-memory store
// to the arena. Load counters carry over zero — the runtime resets them at
// every round boundary anyway.
func (ps *pendingStore) swap(fs *FileStore, a *Arena) {
	ps.store(fs)
	a.Recycle(ps.mem)
	ps.mem = nil
}

// Close retires the backend: it joins the background write, then releases
// whatever reads were being served from — the mmap'd segment after a swap,
// or just the segment file when the store retired before any Barrier.
func (ps *pendingStore) Close() error {
	<-ps.done
	if fs, ok := ps.backend().(*FileStore); ok {
		return fs.Close()
	}
	ps.mem = nil
	if ps.err == nil {
		return ps.pub.release(ps.path)
	}
	return nil
}

// StoreBackend delegation: every read goes through the current inner
// backend (in-memory before the swap, mmap'd segment after).

func (ps *pendingStore) Get(k Key) (Value, bool)               { return ps.backend().Get(k) }
func (ps *pendingStore) GetIndexed(k Key, i int) (Value, bool) { return ps.backend().GetIndexed(k, i) }
func (ps *pendingStore) GetRange(k Key, lo, hi int, dst []Value) []Value {
	return ps.backend().GetRange(k, lo, hi, dst)
}
func (ps *pendingStore) Count(k Key) int     { return ps.backend().Count(k) }
func (ps *pendingStore) Len() int            { return ps.backend().Len() }
func (ps *pendingStore) Shards() int         { return ps.backend().Shards() }
func (ps *pendingStore) ShardSizes() []int   { return ps.backend().ShardSizes() }
func (ps *pendingStore) ShardLoads() []int64 { return ps.backend().ShardLoads() }
func (ps *pendingStore) MaxShardLoad() int64 { return ps.backend().MaxShardLoad() }
func (ps *pendingStore) ResetLoads()         { ps.backend().ResetLoads() }

// GetMany batches through whichever side currently serves reads; both the
// in-memory store and the mmap'd segment implement BatchGetter natively.
func (ps *pendingStore) GetMany(keys []Key, vals []Value, oks []bool) {
	b := ps.backend()
	if bg, ok := b.(BatchGetter); ok {
		bg.GetMany(keys, vals, oks)
		return
	}
	for i, k := range keys {
		vals[i], oks[i] = b.Get(k)
	}
}

// GetHashed delegates a pre-hashed read; both sides of the swap share the
// salt, so the caller's hash routes identically on either.
func (ps *pendingStore) GetHashed(k Key, h uint64) (Value, bool) {
	b := ps.backend()
	if pg, ok := b.(PrehashedGetter); ok {
		return pg.GetHashed(k, h)
	}
	return b.Get(k)
}

// Salt returns the placement salt; identical on both sides of the swap (the
// segment records the salt the in-memory store was built with).
func (ps *pendingStore) Salt() uint64 {
	if sl, ok := ps.backend().(Salter); ok {
		return sl.Salt()
	}
	return 0
}

var (
	_ StoreBackend = (*pendingStore)(nil)
	_ BatchGetter  = (*pendingStore)(nil)
	_ Salter       = (*pendingStore)(nil)
)
