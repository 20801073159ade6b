package dds

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Typed errors returned when opening a serialized store. Use errors.Is; the
// returned errors wrap these sentinels with the offending path and detail.
var (
	// ErrBadMagic means the bytes do not start with the section (or segment)
	// magic — they are not a section at all.
	ErrBadMagic = errors.New("dds: shard file: bad magic")
	// ErrBadVersion means the bytes declare a format version or a section
	// encoding this reader does not implement.
	ErrBadVersion = errors.New("dds: shard file: unsupported format version")
	// ErrTruncated means the bytes are shorter than their header or declared
	// payload.
	ErrTruncated = errors.New("dds: shard file: truncated")
	// ErrChecksum means the header+payload checksum does not match: the
	// bytes were corrupted after serialization.
	ErrChecksum = errors.New("dds: shard file: checksum mismatch")
	// ErrBadGeometry means the header fields are structurally inconsistent:
	// a slot count other than the one its pair count gets, a shard index
	// other than the expected one, or a section table that does not tile its
	// segment.
	ErrBadGeometry = errors.New("dds: shard file: inconsistent geometry")
)

var le = binary.LittleEndian

// checksum folds the 8-byte little-endian words of the given byte slices,
// each one's final partial word zero-padded, through the store's SplitMix64
// finalizer. The chain is order-sensitive, so moved or swapped records
// change the sum.
func checksum(parts ...[]byte) uint64 {
	h := uint64(checksumSeed)
	for _, p := range parts {
		i := 0
		for ; i+8 <= len(p); i += 8 {
			h = mix(h ^ le.Uint64(p[i:]))
		}
		if i < len(p) {
			var tail [8]byte
			copy(tail[:], p[i:])
			h = mix(h ^ le.Uint64(tail[:]))
		}
	}
	return h
}

// growBytes extends buf by n bytes, reusing spare capacity when available.
// The extension is not zeroed when recycled; callers overwrite every byte.
func growBytes(buf []byte, n int) []byte {
	if tot := len(buf) + n; tot <= cap(buf) {
		return buf[:tot]
	}
	return append(buf, make([]byte, n)...)
}

// FilePublisher is a Publisher that writes every published store to a
// segment file behind the round that reads it. The frozen in-memory store
// itself is the backend the next round reads, exactly as on the mem backend;
// the segment is the generation's durable copy, which OpenSegment (or a
// shard server's OpenSection) reads back.
//
// Publishing is write-behind: Publish hands the frozen store to a background
// goroutine that streams it to a segment file and renames the segment into
// place while the caller's next round executes against the same store, and
// returns the store. Barrier joins the write.
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
	p.inflight = done
	p.mu.Unlock()
	go func() { done <- p.write(path, s) }()
	return s, nil
}

// write is the background writer: one publish, one goroutine, joined by
// Barrier (or Publish/Close) through the inflight channel. Mid-run
// generations skip fsync (streamSegment's nosync): they are superseded
// within rounds; the surviving segment is made durable once, at Close. A
// complete segment becomes the latest and queues the one it supersedes for
// deletion.
func (p *FilePublisher) write(path string, s *Store) error {
	p.drainGarbage()
	err := streamSegment(s, path, true, p.cancelled)
	p.mu.Lock()
	defer p.mu.Unlock()
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
// is deferred to Close) and returns a write failure or
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
