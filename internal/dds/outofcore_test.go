package dds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSegmentPackedSections asserts the writer packs every section, that
// packing beats the raw block, and that both fully-verified readers —
// OpenSegment and OpenSection — decode each section into the table the
// oracle freeze builds. One row's only shard is past the size (4 MiB of raw
// records) above which earlier writers left a section raw.
func TestSegmentPackedSections(t *testing.T) {
	large := make([]KV, 50000)
	for i := range large {
		large[i] = kv(1, int64(i), 0, int64(i)*10, 0)
	}
	for _, tc := range []struct {
		name  string
		pairs []KV
		p     int
		salt  uint64
	}{
		{"random", randomPairs(rand.New(rand.NewSource(7)), 6000, 4), 4, 0xBEEF},
		{"one large shard", large, 1, 0x1A},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(tc.pairs, tc.p, tc.salt)
			oracle := oracleStore(tc.pairs, tc.p, tc.salt)
			seg := AppendSegment(nil, s)
			if raw := rawSegment(s); len(seg) >= len(raw) {
				t.Fatalf("segment %d bytes, raw blocks %d — packing never engaged", len(seg), len(raw))
			}
			sections, encs, err := sliceSections(seg)
			if err != nil {
				t.Fatal(err)
			}
			for i, sec := range sections {
				if encs[i] != encPacked {
					t.Fatalf("section %d (%d bytes) has encoding %d, want packed", i, len(sec), encs[i])
				}
				r, err := OpenSection(sec, encs[i], i)
				if err != nil {
					t.Fatalf("OpenSection %d: %v", i, err)
				}
				sameShard(t, &r.sh, &oracle.shards[i])
			}
			path := filepath.Join(t.TempDir(), fmt.Sprintf(segFileFmt, 0))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenSegment(path)
			if err != nil {
				t.Fatalf("OpenSegment rejected a packed segment: %v", err)
			}
			defer fs.Close()
			for i := range fs.shards {
				sameShard(t, &fs.shards[i], &oracle.shards[i])
			}
			checkAgainstReference(t, fs, reference(tc.pairs), []Key{{9, 9, 9}})
		})
	}
}

// TestPackedBlockCorruption drives the section decoder, through OpenSection,
// with every malformed stream shape: truncated varints, over-declared
// geometry, slot indexes past the table, counts past int32, 64-bit varint
// overflow and trailing bytes all fail with typed errors — never a panic,
// never a silent mis-decode.
func TestPackedBlockCorruption(t *testing.T) {
	s := NewStore(goldenPairs, 1, goldenSalt)
	valid := packShard(nil, &s.shards[0], 0, 1, goldenSalt)
	got, err := OpenSection(valid, encPacked, 0)
	if err != nil {
		t.Fatalf("valid section rejected: %v", err)
	}
	sameShard(t, &got.sh, &s.shards[0])
	overflow := bytes.Repeat([]byte{0xFF}, 11)
	// resum re-seals a malformed section with a valid checksum, so the
	// structural check itself has to reject it.
	resum := func(b []byte) []byte {
		if len(b) >= headerBytes {
			le.PutUint64(b[56:], checksum(b[:56], b[headerBytes:]))
		}
		return b
	}
	// forge is valid's header declaring pairs and slots, no slab, then
	// payload.
	forge := func(pairs, slots uint64, payload ...byte) []byte {
		b := append([]byte(nil), valid[:headerBytes]...)
		le.PutUint64(b[32:], pairs)
		le.PutUint64(b[40:], slots)
		le.PutUint64(b[48:], 0)
		return slices.Clip(append(b, payload...))
	}
	// small is the header of a one-pair shard: two slots, no slab.
	small := forge(1, 2)
	// oneSlot is a one-pair section whose record lists count and off.
	oneSlot := func(count, off uint64) []byte {
		b := forge(1, 2, 1, 0, 2, 2, 1, 2, 2) // one record at slot 0: key (1,1,1), value (1,1)
		return binary.AppendUvarint(binary.AppendUvarint(b, count), off)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"shorter than a header", valid[:headerBytes-1], ErrTruncated},
		{"not a shard header", append([]byte("XXXXXXXX"), valid[8:]...), ErrBadMagic},
		{"varint stream cut short", append(small, 0x80, 0x80), ErrTruncated},
		{"payload truncated mid-slot", valid[:len(valid)-3], ErrTruncated},
		{"occupied count overflows varint", append(small, overflow...), ErrBadGeometry},
		{"occupied exceeds slot table", binary.AppendUvarint(small, 1<<40), ErrBadGeometry},
		{"slot index past the table", append(binary.AppendUvarint(binary.AppendUvarint(small, 1), 1<<30), 0), ErrBadGeometry},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x01), ErrBadGeometry},
		{"declared slots beyond the size cap", forge(uint64(s.Len()), 1<<40), ErrBadGeometry},
		{"declared pairs over a few payload bytes", forge(1<<40, le.Uint64(valid[40:]), valid[headerBytes:]...), ErrBadGeometry},
		{"declared pairs and their slots beyond the payload", forge(1<<40, 1<<41, valid[headerBytes:]...), ErrTruncated},
		{"slot count beyond int32", oneSlot(1<<32|1, 0), ErrBadGeometry},
		{"slab offset beyond int32", oneSlot(1, 1<<32), ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := resum(append([]byte(nil), tc.data...))
			if _, err := OpenSection(data, encPacked, 0); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}

	// A record listed with count 0 is an empty slot; the others decode as
	// listed.
	t.Run("listed record with count 0 is an empty slot", func(t *testing.T) {
		packed := forge(1, 2, 2) // one pair, two slots, two records
		for _, rec := range []struct{ count, off uint64 }{{0, 3}, {1, 5}} {
			packed = binary.AppendUvarint(packed, 0) // slot 0, then slot 1
			packed = binary.AppendUvarint(packed, zigzag(7))
			packed = binary.AppendUvarint(packed, zigzag(-1))
			packed = append(packed, 2)
			packed = binary.AppendUvarint(packed, zigzag(11))
			packed = binary.AppendUvarint(packed, zigzag(-12))
			packed = binary.AppendUvarint(packed, rec.count)
			packed = binary.AppendUvarint(packed, rec.off)
		}
		got, err := OpenSection(resum(packed), encPacked, 0)
		if err != nil {
			t.Fatalf("section rejected: %v", err)
		}
		sl := &got.sh.slots[1]
		if got.sh.occupied(0) || !got.sh.occupied(1) || sl.count != 1 || sl.off != 5 ||
			got.sh.key(sl) != (Key{Tag: 2, A: 7, B: -1}) || got.sh.first(sl) != (Value{A: 11, B: -12}) {
			t.Fatalf("decoded occupancy %b, slot 1 = %+v", got.sh.bits[0], *sl)
		}
	})

	// Integrity: the checksum covers the header's first 56 bytes and every
	// payload byte, including a varint tail shorter than one checksum word,
	// and a stale sum in the checksum word itself fails.
	for _, flip := range []int{24, headerBytes, len(valid) - 1, 56} {
		bad := append([]byte(nil), valid...)
		bad[flip] ^= 0x01
		if _, err := OpenSection(bad, encPacked, 0); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: error %v, want ErrChecksum", flip, err)
		}
	}
}

// sameShard fails the test unless two decoded shards hold the same table:
// slot count, occupancy bits, every occupied slot, slab and pair count.
func sameShard(t *testing.T, got, want *shard) {
	t.Helper()
	if len(got.slots) != len(want.slots) || got.mask != want.mask || got.size != want.size ||
		!slices.Equal(got.bits, want.bits) || !slices.Equal(got.slab, want.slab) {
		t.Fatalf("shards differ: %d/%d slots, %d/%d pairs, bits %v/%v, slab %v/%v",
			len(got.slots), len(want.slots), got.size, want.size, got.bits, want.bits, got.slab, want.slab)
	}
	got.forOccupied(func(j int) {
		g, w := &got.slots[j], &want.slots[j]
		if got.key(g) != want.key(w) || got.first(g) != want.first(w) || g.count != w.count || g.off != w.off {
			t.Fatalf("slot %d: %v %v %d@%d, want %v %v %d@%d", j, got.key(g), got.first(g), g.count, g.off,
				want.key(w), want.first(w), w.count, w.off)
		}
	})
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

// requireFileLocking skips t where the platform has no file locking: the
// stale-run sweep decides liveness by lock, and without one it removes
// nothing.
func requireFileLocking(t *testing.T) {
	t.Helper()
	lk, err := acquireFileLock(filepath.Join(t.TempDir(), "probe.lock"), false)
	if err != nil {
		t.Skipf("file locking unavailable (%v): the stale-run sweep is disabled on this platform", err)
	}
	lk.release()
}

// writeTestFile writes data to path, failing the test on error.
func writeTestFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// publishOne publishes a one-pair store through pub and joins the write.
func publishOne(t *testing.T, pub *FilePublisher, a, v int64) StoreBackend {
	t.Helper()
	b, err := pub.Publish(0, NewStore([]KV{kv(1, a, 0, v, 0)}, 2, uint64(a)))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepStaleRuns is the crashed-run regression test: a later publisher
// starting in the same parent directory must clear what dead runs left and
// leave live runs alone. In a caller's directory a dead run keeps exactly its
// newest segment — its temp files and superseded segments go, and a dead run
// that never published goes entirely. Under the shared temporary parent a
// dead run goes entirely, since nobody can name it.
func TestSweepStaleRuns(t *testing.T) {
	requireFileLocking(t)

	t.Run("supplied", func(t *testing.T) {
		parent := t.TempDir()
		// A live publisher claims its run directory (and holds its liveness
		// lock) before the stale wreckage appears.
		live := NewFilePublisher(parent)
		liveBackend := publishOne(t, live, 1, 10)
		liveSeg := segPath(live, 0)

		// Crashed run A: a torn temp file, a superseded segment and the
		// newest one, which the sweep must keep.
		runA := filepath.Join(parent, "run-stalea")
		superseded := filepath.Join(runA, fmt.Sprintf(segFileFmt, 7))
		newest := filepath.Join(runA, fmt.Sprintf(segFileFmt, 9))
		writeTestFile(t, superseded, AppendSegment(nil, NewStore([]KV{kv(1, 9, 0, 90, 0)}, 2, 0xFACE)))
		writeTestFile(t, newest, AppendSegment(nil, NewStore([]KV{kv(1, 9, 0, 91, 0)}, 2, 0xFACF)))
		torn := filepath.Join(runA, ".store-000010.seg.tmp")
		writeTestFile(t, torn, []byte("partial"))
		// Crashed run B: locked by nobody, never published a segment.
		runB := filepath.Join(parent, "run-staleb")
		writeTestFile(t, filepath.Join(runB, ".store-000000.seg.tmp"), []byte("x"))
		// A stray temp file in the parent itself goes too.
		looseTmp := filepath.Join(parent, "stray.tmp")
		writeTestFile(t, looseTmp, []byte("x"))

		// A second publisher starting in the same parent triggers the sweep.
		sweeper := NewFilePublisher(parent)
		sb := publishOne(t, sweeper, 2, 20)

		for _, gone := range []string{torn, superseded, runB, looseTmp} {
			if _, err := os.Stat(gone); err == nil {
				t.Errorf("sweep left %s behind", gone)
			}
		}
		for _, kept := range []string{newest, liveSeg} {
			if _, err := os.Stat(kept); err != nil {
				t.Errorf("sweep removed %s: %v", kept, err)
			}
		}
		// The kept segment must still open — the sweep preserved a usable store.
		if fs, err := OpenSegment(newest); err != nil {
			t.Errorf("kept segment no longer opens: %v", err)
		} else {
			if v, ok := fs.Get(Key{1, 9, 0}); !ok || v.A != 91 {
				t.Errorf("kept segment reads %v %v, want the newest store", v, ok)
			}
			fs.Close()
		}
		if v, ok := liveBackend.Get(Key{1, 1, 0}); !ok || v.A != 10 {
			t.Errorf("live publisher's reads broken after a sibling sweep: %v %v", v, ok)
		}
		for _, c := range []interface{ Close() error }{liveBackend, sb, live, sweeper} {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("owned", func(t *testing.T) {
		t.Setenv("TMPDIR", t.TempDir())
		parent := filepath.Join(os.TempDir(), "ampc-dds")
		live := NewFilePublisher("")
		liveBackend := publishOne(t, live, 1, 10)

		// A killed run under the shared parent: segments and a torn temp
		// file that no later run can name, so all of it must go.
		dead := filepath.Join(parent, "run-dead")
		writeTestFile(t, filepath.Join(dead, fmt.Sprintf(segFileFmt, 3)), AppendSegment(nil, NewStore(nil, 2, 1)))
		writeTestFile(t, filepath.Join(dead, ".store-000004.seg.tmp"), []byte("partial"))

		sweeper := NewFilePublisher("")
		sb := publishOne(t, sweeper, 2, 20)
		if _, err := os.Stat(dead); err == nil {
			t.Errorf("sweep left the dead temp run %s behind", dead)
		}
		if _, err := os.Stat(segPath(live, 0)); err != nil {
			t.Errorf("sweep removed a live run's segment: %v", err)
		}
		if v, ok := liveBackend.Get(Key{1, 1, 0}); !ok || v.A != 10 {
			t.Errorf("live publisher's reads broken after a sibling sweep: %v %v", v, ok)
		}
		for _, c := range []interface{ Close() error }{liveBackend, sb, live, sweeper} {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Both publishers removed their own run directories on Close.
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != ".ampc-dir.lock" {
				t.Errorf("%s left under the temp parent after every publisher closed", e.Name())
			}
		}
	})
}

// TestFilePublisherBoundsDisk simulates the runtime's round loop against the
// publisher — publish, then the pre-freeze barrier — and asserts the disk
// bound: after every round at most two store segments exist (the durable
// latest and its just-superseded predecessor awaiting deferred deletion),
// and after Close exactly the latest one.
func TestFilePublisherBoundsDisk(t *testing.T) {
	pub := NewFilePublisher(t.TempDir())
	r := rand.New(rand.NewSource(44))
	for seq := 0; seq < 6; seq++ {
		pairs := randomPairs(r, 2000+seq*300, 3)
		// Salts rotate per generation exactly as the runtime draws them.
		b, err := pub.Publish(seq, NewStore(pairs, 4, uint64(seq)*1315423911+5))
		if err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
		if err := pub.Barrier(); err != nil {
			t.Fatalf("barrier %d: %v", seq, err)
		}
		if v, ok := b.Get(pairs[0].Key); !ok || v != pairs[0].Value {
			t.Fatalf("round %d: read wrong: %v %v", seq, v, ok)
		}
		if segs := segFiles(t, pub.Dir()); len(segs) > 2 {
			t.Fatalf("round %d: %d segments on disk (%v), invariant allows 2", seq, len(segs), segs)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(t, pub.Dir()); len(segs) != 1 || segs[0] != fmt.Sprintf(segFileFmt, 5) {
		t.Fatalf("after close: %v on disk, want exactly the latest segment", segs)
	}
}

// TestPackShardMatchesReference pins the packer against the reference
// path: packShard, which emits varints straight from the in-memory slot
// index, must produce exactly packRawBlock over the shard's raw block — for
// every shard of stores spanning empty shards, duplicate chains, negative
// words and recycled destination buffers.
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
			want := packRawBlock(nil, rawBlock(sh, i, len(s.shards), s.salt))
			got := packShard(nil, sh, i, len(s.shards), s.salt)
			if string(got) != string(want) {
				t.Fatalf("store %d shard %d: packer diverges from reference (%d vs %d bytes)",
					si, i, len(got), len(want))
			}
			recycled := packShard(dirty[:0:3], sh, i, len(s.shards), s.salt)
			if string(recycled) != string(want) {
				t.Fatalf("store %d shard %d: packer depends on destination buffer contents", si, i)
			}
		}
	}
}
