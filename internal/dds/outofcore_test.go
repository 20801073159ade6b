package dds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// similarPairs builds two pair lists over the same key set and insertion
// order, differing only in a handful of values — the shape a fixed-salt
// publish chain produces, where delta encoding must win.
func similarPairs(seed int64, n int) (a, b []KV) {
	r := rand.New(rand.NewSource(seed))
	a = randomPairs(r, n, 6)
	b = append([]KV(nil), a...)
	for i := 0; i*37 < len(b); i++ {
		b[i*37].Value.A ^= 0x5A5A
	}
	return a, b
}

// similarStores is similarPairs built into stores sharing one salt.
func similarStores(seed int64, n, p int, salt uint64) (base, next *Store) {
	a, b := similarPairs(seed, n)
	return NewStore(a, p, salt), NewStore(b, p, salt)
}

// writeDeltaFixture publishes a store as store-000000.seg (self-contained,
// compressed) and a near-identical fixed-salt successor as store-000001.seg
// delta-encoded against it, failing the test if delta encoding does not
// engage. It returns the two paths and the successor's pairs for reference
// checks.
func writeDeltaFixture(t testing.TB, dir string) (basePath, deltaPath string, nextPairs []KV) {
	t.Helper()
	base, next := similarStores(31, 4000, 3, 0xFACE)
	_, nextPairs = similarPairs(31, 4000)
	basePath = filepath.Join(dir, fmt.Sprintf(segFileFmt, 0))
	deltaPath = filepath.Join(dir, fmt.Sprintf(segFileFmt, 1))
	if _, err := WriteSegment(base, basePath, nil); err != nil {
		t.Fatalf("write base segment: %v", err)
	}
	baseFS, err := OpenSegment(basePath)
	if err != nil {
		t.Fatalf("open base segment: %v", err)
	}
	defer baseFS.Close()
	_, st, err := writeSegment(next, deltaPath, nil, segOpts{compress: true, base: baseFS, baseSeq: 0}, nil, nil)
	if err != nil {
		t.Fatalf("write delta segment: %v", err)
	}
	if !st.usedDelta {
		t.Fatal("delta encoding did not engage on a near-identical fixed-salt store")
	}
	return basePath, deltaPath, nextPairs
}

// TestSegmentPackedSections asserts the compressed writer actually emits
// packed sections on a compressible store, that they are smaller than the
// raw form, and that the fully-verified reader answers every query exactly
// like the in-memory store it came from.
func TestSegmentPackedSections(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pairs := randomPairs(r, 6000, 4)
	s := NewStore(pairs, 4, 0xBEEF)
	raw := AppendSegment(nil, s)
	comp, _ := appendSegment(nil, s, segOpts{compress: true}, nil)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed segment %d bytes, raw %d — packing never engaged", len(comp), len(raw))
	}
	packed := 0
	for i := 0; i < s.Shards(); i++ {
		if comp[headerBytes+i*segTableEntry+16] == encPacked {
			packed++
		}
	}
	if packed == 0 {
		t.Fatal("no section chose encPacked despite the size win")
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf(segFileFmt, 0))
	if err := os.WriteFile(path, comp, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment rejected a packed segment: %v", err)
	}
	defer fs.Close()
	checkAgainstReference(t, fs, reference(pairs), []Key{{9, 9, 9}})
}

// TestSegmentDeltaRoundTrip pins the delta path end to end: a fixed-salt
// successor store delta-encodes against the previous generation, records the
// base sequence in its super-header, is dramatically smaller than a
// self-contained segment, and answers every read through the fully verified
// reader exactly like the in-memory store it froze from.
func TestSegmentDeltaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	basePath, deltaPath, nextPairs := writeDeltaFixture(t, dir)

	seq, ok := segmentBaseSeq(deltaPath)
	if !ok || seq != 0 {
		t.Fatalf("delta super-header base = (%d, %v), want (0, true)", seq, ok)
	}
	if _, ok := segmentBaseSeq(basePath); ok {
		t.Fatal("self-contained base segment declares a delta base")
	}
	bi, err := os.Stat(basePath)
	if err != nil {
		t.Fatal(err)
	}
	di, err := os.Stat(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if di.Size()*4 > bi.Size() {
		t.Fatalf("delta segment %d bytes vs base %d: few-value diffs should compress far below 25%%", di.Size(), bi.Size())
	}
	fs, err := OpenSegment(deltaPath)
	if err != nil {
		t.Fatalf("OpenSegment(delta): %v", err)
	}
	defer fs.Close()
	if fs.Len() != len(nextPairs) || fs.Salt() != 0xFACE {
		t.Fatalf("metadata drift through delta: len %d/%d salt %#x", fs.Len(), len(nextPairs), fs.Salt())
	}
	checkAgainstReference(t, fs, reference(nextPairs), []Key{{9, 9, 9}, {7, -1, 5}})
}

// TestSegmentDeltaCorruption is the delta-specific corruption table: every
// way the cross-file dependency can break — base gone, base never named,
// self-reference, a two-level chain — maps to ErrMissingBase with the
// damaged section located, and an unknown encoding byte is a version error,
// so a failed open always says what is wrong rather than panicking.
func TestSegmentDeltaCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, dir, basePath, deltaPath string)
		want   error
	}{
		{"base segment deleted", func(t *testing.T, dir, basePath, deltaPath string) {
			if err := os.Remove(basePath); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingBase},
		{"super-header names no base", func(t *testing.T, dir, basePath, deltaPath string) {
			patchSegHeader(t, deltaPath, func(b []byte) {
				le.PutUint64(b[40:], noBaseSeq)
			})
		}, ErrMissingBase},
		{"segment names itself as base", func(t *testing.T, dir, basePath, deltaPath string) {
			patchSegHeader(t, deltaPath, func(b []byte) {
				le.PutUint64(b[40:], 1) // store-000001.seg is the delta itself
			})
		}, ErrMissingBase},
		{"base is itself delta-encoded", func(t *testing.T, dir, basePath, deltaPath string) {
			// A copy of the delta at sequence 2, rebased onto the delta at
			// sequence 1: resolving it would need a two-level chain.
			b, err := os.ReadFile(deltaPath)
			if err != nil {
				t.Fatal(err)
			}
			le.PutUint64(b[40:], 1)
			fixSegChecksum(b)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segFileFmt, 2)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingBase},
		{"corrupt base fails the dependent open", func(t *testing.T, dir, basePath, deltaPath string) {
			b, err := os.ReadFile(basePath)
			if err != nil {
				t.Fatal(err)
			}
			b[0] = 'X'
			if err := os.WriteFile(basePath, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingBase},
		{"unknown section encoding", func(t *testing.T, dir, basePath, deltaPath string) {
			patchSegHeader(t, deltaPath, func(b []byte) {
				b[headerBytes+16] = 7 // section 0's encoding byte
			})
		}, ErrBadVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath, deltaPath, _ := writeDeltaFixture(t, dir)
			target := deltaPath
			tc.mutate(t, dir, basePath, deltaPath)
			if tc.name == "base is itself delta-encoded" {
				target = filepath.Join(dir, fmt.Sprintf(segFileFmt, 2))
			}
			fs, err := OpenSegment(target)
			if err == nil {
				fs.Close()
				t.Fatal("damaged delta chain opened cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
			var se *SectionError
			if !errors.As(err, &se) {
				t.Fatalf("error %v does not locate a section", err)
			}
		})
	}
}

// patchSegHeader rewrites one segment file in place through mutate, fixing
// the super-header checksum afterwards so only the intended damage is seen.
func patchSegHeader(t *testing.T, path string, mutate func([]byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(b)
	fixSegChecksum(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPackedBlockCorruption drives unpackBlock with every malformed packed
// stream shape: truncated varints, over-declared geometry, slot indexes past
// the table, 64-bit varint overflow and trailing bytes all fail with typed
// errors — never a panic, never a silent mis-decode.
func TestPackedBlockCorruption(t *testing.T) {
	raw := shardBlock(&goldenStore().shards[0], 0, 1, goldenSalt)
	valid := packRawBlock(nil, raw)
	got, err := unpackBlock(valid, "t", true)
	if err != nil {
		t.Fatalf("valid packed block rejected under verify: %v", err)
	}
	// The decoded block matches the raw form everywhere except the checksum
	// word, which holds the packed sum.
	if !bytes.Equal(got[:56], raw[:56]) || !bytes.Equal(got[headerBytes:], raw[headerBytes:]) {
		t.Fatal("valid packed block did not round-trip")
	}
	if le.Uint64(got[56:]) != checksumPacked(valid[:56], valid[headerBytes:]) {
		t.Fatal("decoded header does not carry the packed checksum")
	}
	header := append([]byte(nil), valid[:headerBytes]...)
	overflow := bytes.Repeat([]byte{0xFF}, 11)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"shorter than a header", valid[:headerBytes-1], ErrTruncated},
		{"not a shard header", append([]byte("XXXXXXXX"), valid[8:]...), ErrBadMagic},
		{"varint stream cut short", valid[:headerBytes+1], ErrTruncated},
		{"payload truncated mid-slot", valid[:len(valid)-3], ErrTruncated},
		{"occupied count overflows varint", append(append([]byte(nil), header...), overflow...), ErrBadGeometry},
		{"occupied exceeds slot table", binary.AppendUvarint(append([]byte(nil), header...), 1<<40), ErrBadGeometry},
		{"slot index past the table", append(binary.AppendUvarint(binary.AppendUvarint(append([]byte(nil), header...), 1), 1<<30), 0), ErrBadGeometry},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x01), ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Structural errors must surface even on the trusted path, where
			// the packed checksum is never folded.
			if _, err := unpackBlock(tc.data, "t", false); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}

	t.Run("declared slots beyond the size cap", func(t *testing.T) {
		h := append([]byte(nil), header...)
		le.PutUint64(h[40:48], maxPackedRaw/slotBytes+1)
		if _, err := unpackBlock(h, "t", false); !errors.Is(err, ErrBadGeometry) {
			t.Fatalf("error %v, want ErrBadGeometry", err)
		}
	})

	// Integrity under verify: the packed checksum covers the header's first
	// 56 bytes and every payload byte, including a varint tail shorter than
	// one checksum word, and a stale sum in the checksum word itself fails.
	for _, flip := range []int{24, headerBytes, len(valid) - 1, 56} {
		bad := append([]byte(nil), valid...)
		bad[flip] ^= 0x01
		if _, err := unpackBlock(bad, "t", true); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: error %v, want ErrChecksum", flip, err)
		}
	}
}

// TestDeltaBlockCorruption drives undeltaBlock with malformed op streams:
// oversized declared blocks, copies past the base, truncated literals,
// zero-progress ops and trailing bytes each map to a typed error.
func TestDeltaBlockCorruption(t *testing.T) {
	base := []byte("0123456789abcdef0123456789abcdef0123456789abcdef")
	raw := append([]byte(nil), base...)
	raw[40] ^= 0xFF
	valid := appendDeltaBlock(nil, raw, base)
	if got, err := undeltaBlock(valid, base, "t"); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("valid delta block did not round-trip: %v", err)
	}
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}

	cases := []struct {
		name string
		data []byte
		base []byte
		want error
	}{
		{"empty stream", nil, base, ErrTruncated},
		{"size varint overflows", bytes.Repeat([]byte{0xFF}, 11), base, ErrBadGeometry},
		{"declared size beyond base plus literals", uv(1 << 40), base, ErrBadGeometry},
		{"copy past the base", uv(16, 200), base[:8], ErrBadGeometry},
		{"ops cut short", uv(40, 8), base, ErrTruncated},
		{"literal cut short", append(uv(40, 0, 32), 'x'), base, ErrTruncated},
		{"zero-progress op", uv(8, 0, 0), base, ErrBadGeometry},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x01), base, ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := undeltaBlock(tc.data, tc.base, "t"); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

// segFiles lists the store-*.seg files under dir, sorted by ReadDir order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "store-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestFilePublisherDeltaChainPinsBase exercises the fixed-salt publish chain
// the publisher's base-pinning protects: a delta segment keeps its base on
// disk past the base's own retirement, a delta segment never serves as a
// base itself (chains stay one level), and retiring the delta finally
// releases both.
func TestFilePublisherDeltaChainPinsBase(t *testing.T) {
	dir := t.TempDir()
	pub := NewFilePublisher(dir)
	pub.SetSync(true)
	const salt = 0xFACE
	a, next := similarStores(31, 4000, 3, salt)

	b0, err := pub.Publish(0, a)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := pub.Publish(1, next)
	if err != nil {
		t.Fatal(err)
	}
	seg0, seg1 := segPath(pub, 0), segPath(pub, 1)
	if seq, ok := segmentBaseSeq(seg1); !ok || seq != 0 {
		t.Fatalf("fixed-salt successor did not delta-encode: base = (%d, %v)", seq, ok)
	}

	// Retire the base's backend: the delta at seq 1 still decodes against
	// seg0, so it must survive retirement and the next publish's garbage
	// drain.
	if err := b0.Close(); err != nil {
		t.Fatal(err)
	}
	third, _ := similarStores(77, 4000, 3, salt)
	b2, err := pub.Publish(2, third)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg0); err != nil {
		t.Fatalf("base segment deleted while a durable delta still needs it: %v", err)
	}
	// seq 2 shares the salt but its would-be base (seq 1) is itself a delta:
	// the one-level chain rule forces it self-contained.
	if seq, ok := segmentBaseSeq(segPath(pub, 2)); ok {
		t.Fatalf("segment published over a delta base claims base %d; chains must stay one level", seq)
	}

	// Retiring the delta unpins the base; both leave disk together.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{seg0, seg1} {
		if _, err := os.Stat(gone); err == nil {
			t.Fatalf("%s survived the retirement of every reader", filepath.Base(gone))
		}
	}
	if fs, err := OpenSegment(segPath(pub, 2)); err != nil {
		t.Fatalf("latest segment must survive publisher Close in a caller dir: %v", err)
	} else {
		fs.Close()
	}
}

// TestSweepStaleRuns is the crashed-run regression test: a later publisher
// starting in the same parent directory must clear dead runs' temp files and
// superseded segments (keeping each dead run's newest segment and its delta
// base), remove dead runs that never published, and leave live runs alone.
func TestSweepStaleRuns(t *testing.T) {
	parent := t.TempDir()

	// A live publisher claims its run directory (and holds its liveness
	// lock) before the stale wreckage appears.
	live := NewFilePublisher(parent)
	liveBackend, err := live.Publish(0, NewStore([]KV{kv(1, 1, 0, 10, 0)}, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Barrier(); err != nil {
		t.Fatal(err)
	}
	if live.lock == nil {
		t.Skip("file locking unavailable; sweep is disabled on this platform")
	}
	liveSeg := segPath(live, 0)

	// Crashed run A: a torn temp file, a superseded segment, and a newest
	// segment whose delta sections read from its predecessor.
	runA := filepath.Join(parent, "run-stalea")
	if err := os.MkdirAll(runA, 0o755); err != nil {
		t.Fatal(err)
	}
	old := NewStore([]KV{kv(1, 9, 0, 90, 0)}, 2, 0xFACE)
	superseded := filepath.Join(runA, fmt.Sprintf(segFileFmt, 7))
	if _, err := WriteSegment(old, superseded, nil); err != nil {
		t.Fatal(err)
	}
	// writeDeltaFixture lays down store-000000.seg (base) and
	// store-000001.seg (delta against it) — the pair the sweep must keep.
	baseA, deltaA, _ := writeDeltaFixture(t, runA)
	// The fixture's base is older than the superseded segment by sequence,
	// but the delta (seq 1) is not the newest; renumber so the delta chain is
	// newest: move them up past 7.
	keptBase := filepath.Join(runA, fmt.Sprintf(segFileFmt, 8))
	keptDelta := filepath.Join(runA, fmt.Sprintf(segFileFmt, 9))
	if err := os.Rename(baseA, keptBase); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(deltaA, keptDelta); err != nil {
		t.Fatal(err)
	}
	patchSegHeader(t, keptDelta, func(b []byte) { le.PutUint64(b[40:], 8) })
	torn := filepath.Join(runA, ".store-000010.seg.tmp")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Crashed run B: locked by nobody, never published a segment.
	runB := filepath.Join(parent, "run-staleb")
	if err := os.MkdirAll(runB, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runB, ".store-000000.seg.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn temp file in the parent itself (crash between MkdirTemp and
	// rename in an older layout) goes too.
	looseTmp := filepath.Join(parent, "stray.tmp")
	if err := os.WriteFile(looseTmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A second publisher starting in the same parent triggers the sweep.
	sweeper := NewFilePublisher(parent)
	sb, err := sweeper.Publish(0, NewStore([]KV{kv(1, 2, 0, 20, 0)}, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sweeper.Barrier(); err != nil {
		t.Fatal(err)
	}

	for _, gone := range []string{torn, superseded, runB, looseTmp} {
		if _, err := os.Stat(gone); err == nil {
			t.Errorf("sweep left %s behind", gone)
		}
	}
	for _, kept := range []string{keptBase, keptDelta, liveSeg} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("sweep removed %s: %v", kept, err)
		}
	}
	// The kept chain must still open — the sweep preserved a usable store.
	if fs, err := OpenSegment(keptDelta); err != nil {
		t.Errorf("kept delta chain no longer opens: %v", err)
	} else {
		fs.Close()
	}
	if v, ok := liveBackend.Get(Key{1, 1, 0}); !ok || v.A != 10 {
		t.Errorf("live publisher's reads broken after a sibling sweep: %v %v", v, ok)
	}
	if err := liveBackend.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sweeper.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFilePublisherDropResidencyBoundsDisk simulates the runtime's
// drop-residency round loop against the publisher and asserts the
// out-of-core invariants: BarrierBeforeExecute is declared, reads swap onto
// the mmap'd segment at each barrier, and after every round at most two
// store segments exist on disk (the durable latest and its just-superseded
// predecessor awaiting deferred deletion).
func TestFilePublisherDropResidencyBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	pub := NewFilePublisher(dir)
	pub.SetDropRetired(true)
	if !pub.BarrierBeforeExecute() {
		t.Fatal("drop-retired publisher does not request the pre-execute barrier")
	}
	r := rand.New(rand.NewSource(44))
	var prev StoreBackend
	for seq := 0; seq < 6; seq++ {
		pairs := randomPairs(r, 2000+seq*300, 3)
		// Salts rotate per generation exactly as the runtime draws them.
		b, err := pub.Publish(seq, NewStore(pairs, 4, uint64(seq)*1315423911+5))
		if err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
		// The runtime's drop mode barriers before the next execute, so
		// reads leave the heap for the mapping.
		if err := pub.Barrier(); err != nil {
			t.Fatalf("barrier %d: %v", seq, err)
		}
		if _, ok := b.(*pendingStore).backend().(*FileStore); !ok {
			t.Fatalf("round %d: post-barrier reads still served from memory", seq)
		}
		if v, ok := b.Get(pairs[0].Key); !ok || v != pairs[0].Value {
			t.Fatalf("round %d: mmap'd read wrong: %v %v", seq, v, ok)
		}
		if prev != nil {
			if err := prev.Close(); err != nil {
				t.Fatalf("close retired %d: %v", seq-1, err)
			}
		}
		prev = b
		if segs := segFiles(t, pub.Dir()); len(segs) > 2 {
			t.Fatalf("round %d: %d segments on disk (%v), invariant allows 2", seq, len(segs), segs)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(t, pub.Dir()); len(segs) != 1 {
		t.Fatalf("after close: %v on disk, want exactly the latest segment", segs)
	}
}

// TestPackShardMatchesReference pins the fused packer against the reference
// path: packShard, which folds the block checksum over virtual raw words and
// emits varints straight from the in-memory slot index, must produce exactly
// packRawBlock over the materialized raw block — for every shard of stores
// spanning empty shards, duplicate chains, negative words and recycled
// destination buffers.
func TestPackShardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	stores := []*Store{
		NewStore(nil, 3, 0x1),
		NewStore(randomPairs(r, 1, 1), 1, 0x2),
		NewStore(randomPairs(r, 5000, 7), 17, 0x9E3779),
		NewStore(randomPairs(r, 20000, 2), 64, 0xFFFFFFFFFFFFFFFF),
		goldenStore(),
	}
	for si, s := range stores {
		dirty := []byte{0xEE, 0xEE, 0xEE}
		for i := range s.shards {
			sh := &s.shards[i]
			raw := make([]byte, shardBlockBytes(sh))
			fillShardBlock(raw, sh, i, len(s.shards), s.salt)
			want := packRawBlock(nil, raw)
			got := packShard(nil, sh, i, len(s.shards), s.salt)
			if string(got) != string(want) {
				t.Fatalf("store %d shard %d: fused packer diverges from reference (%d vs %d bytes)",
					si, i, len(got), len(want))
			}
			recycled := packShard(dirty[:0:3], sh, i, len(s.shards), s.salt)
			if string(recycled) != string(want) {
				t.Fatalf("store %d shard %d: fused packer depends on destination buffer contents", si, i)
			}
		}
	}
}
