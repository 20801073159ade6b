package dds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

const goldenSegment = goldenDir + "/store.seg"

// TestGoldenSegmentFile pins the segment format: the segment WriteSegment
// puts on disk must reproduce the committed file byte-for-byte, and opening
// it must answer every read exactly. Deliberate format changes must bump
// segmentVersion and regenerate with -update.
func TestGoldenSegmentFile(t *testing.T) {
	s := goldenStore()
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteSegment(s, goldenSegment, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("missing golden segment (regenerate with -update): %v", err)
	}
	if got := AppendSegment(nil, s); !bytes.Equal(got, want) {
		t.Errorf("segment serialization no longer bit-identical to the committed format (%d vs %d bytes); "+
			"a deliberate format change must bump segmentVersion and regenerate with -update",
			len(got), len(want))
	}
	fs, err := OpenSegment(goldenSegment)
	if err != nil {
		t.Fatalf("open golden segment: %v", err)
	}
	if fs.Salt() != goldenSalt || fs.Shards() != goldenShards || fs.Len() != len(goldenPairs) {
		t.Fatalf("golden metadata: salt=%#x shards=%d len=%d", fs.Salt(), fs.Shards(), fs.Len())
	}
	checkAgainstReference(t, fs, reference(goldenPairs), []Key{{9, 9, 9}, {1, 3, 0}})
	fs.Close()
}

// TestEncodeSectionsIsTheDiskCodec pins that the wire and the disk carry one
// encoding: EncodeSections' bytes are the committed golden segment (whose
// sections TestGoldenShardFiles opens with OpenSection), every section is
// packed, and an encoding byte the reader does not implement — 0, the raw
// block earlier writers used, or 2 — is refused with ErrBadVersion.
func TestEncodeSectionsIsTheDiskCodec(t *testing.T) {
	want, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("missing golden segment (regenerate with -update): %v", err)
	}
	seg, sections, encs := EncodeSections([]byte("dirty scratch"), goldenStore())
	if !bytes.Equal(seg, want) {
		t.Fatalf("EncodeSections differs from the golden segment (%d vs %d bytes)", len(seg), len(want))
	}
	for i, enc := range encs {
		if enc != encPacked {
			t.Fatalf("section %d has encoding %d, want packed", i, enc)
		}
		for _, bad := range []byte{0, 2} {
			if _, err := OpenSection(sections[i], bad, i); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("section %d as encoding %d: %v, want ErrBadVersion", i, bad, err)
			}
		}
	}
}

// fixSegChecksum recomputes a mutated segment's super-header checksum so the
// validation behind the checksum gate is reachable.
func fixSegChecksum(b []byte) []byte {
	count := int(le.Uint32(b[12:]))
	le.PutUint64(b[56:], checksum(b[0:56], b[headerBytes:headerBytes+count*segTableEntry]))
	return b
}

// TestSegmentCorruption is the segment-level corruption table: super-header
// damage, section-table damage (including swapped section offsets) and
// section-level damage each map to a typed error, with SectionError locating
// the damaged section. A segment of raw blocks, as earlier writers produced
// for empty shards, is refused like any unknown section encoding.
func TestSegmentCorruption(t *testing.T) {
	valid := AppendSegment(nil, goldenStore())
	tableAt := func(i int) int { return headerBytes + i*segTableEntry }

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		want    error
		section int // >= 0: a SectionError carrying this index is required
	}{
		{"truncated super-header", func(b []byte) []byte { return b[:40] }, ErrTruncated, -1},
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated, -1},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic, -1},
		{"shard-file magic", func(b []byte) []byte { copy(b[0:8], shardMagic); return b }, ErrBadMagic, -1},
		{"wrong version", func(b []byte) []byte { le.PutUint32(b[8:], segmentVersion+1); return b }, ErrBadVersion, -1},
		{"bad super-header checksum", func(b []byte) []byte { b[56] ^= 0x10; return b }, ErrChecksum, -1},
		{"flipped table entry", func(b []byte) []byte { b[tableAt(1)] ^= 0x01; return b }, ErrChecksum, -1},
		{"zero shard count", func(b []byte) []byte {
			le.PutUint32(b[12:], 0)
			return fixSegChecksum(b)
		}, ErrBadGeometry, -1},
		{"declared size beyond file", func(b []byte) []byte {
			le.PutUint64(b[32:], uint64(len(b))+100)
			return fixSegChecksum(b)
		}, ErrTruncated, -1},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrBadGeometry, -1},
		{"swapped section offsets", func(b []byte) []byte {
			e0 := append([]byte(nil), b[tableAt(0):tableAt(1)]...)
			copy(b[tableAt(0):tableAt(1)], b[tableAt(1):tableAt(2)])
			copy(b[tableAt(1):tableAt(2)], e0)
			return fixSegChecksum(b)
		}, ErrBadGeometry, -1},
		{"section length wraps uint64", func(b []byte) []byte {
			// A length near 2^64 must not wrap the bounds check into a
			// passing value and panic the section slicing.
			le.PutUint64(b[tableAt(1)+8:], ^uint64(0)-40)
			return fixSegChecksum(b)
		}, ErrBadGeometry, -1},
		{"overlapping sections", func(b []byte) []byte {
			// Pull section 1's offset back into section 0's bytes.
			le.PutUint64(b[tableAt(1):], le.Uint64(b[tableAt(1):])-1)
			return fixSegChecksum(b)
		}, ErrBadGeometry, -1},
		{"truncated section", func(b []byte) []byte {
			// Cut the last section to half a header, keeping super-header
			// and table consistent, so only the section's own check notices.
			last := tableAt(1) + 8
			cut := le.Uint64(b[last:]) - headerBytes/2
			b = b[:uint64(len(b))-cut]
			le.PutUint64(b[32:], uint64(len(b)))
			le.PutUint64(b[last:], headerBytes/2)
			return fixSegChecksum(b)
		}, ErrTruncated, 1},
		{"section payload corruption", func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}, ErrChecksum, 1},
		{"section salt disagrees with super-header", func(b []byte) []byte {
			le.PutUint64(b[16:], goldenSalt+1)
			return fixSegChecksum(b)
		}, ErrBadGeometry, 0},
		{"unknown section encoding", func(b []byte) []byte {
			b[tableAt(0)+16] = 2
			return fixSegChecksum(b)
		}, ErrBadVersion, 0},
		{"raw sections", func([]byte) []byte { return rawSegment(goldenStore()) }, ErrBadVersion, 0},
		{"two corrupt sections, opened in parallel", func(b []byte) []byte {
			// Both sections fail their checksum. A declared pair total past
			// buildWorkers' cutoff stripes the open over the cores; the
			// lower index must still be the one reported.
			b[le.Uint64(b[tableAt(1):])-1] ^= 0x40
			b[len(b)-1] ^= 0x40
			le.PutUint64(b[24:], 1<<20)
			return fixSegChecksum(b)
		}, ErrChecksum, 0},
		{"pair total disagrees with sections", func(b []byte) []byte {
			le.PutUint64(b[24:], uint64(len(goldenPairs))+1)
			return fixSegChecksum(b)
		}, ErrBadGeometry, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.seg")
			buf := tc.mutate(append([]byte(nil), valid...))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenSegment(path)
			if err == nil {
				fs.Close()
				t.Fatal("corrupted segment opened cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
			if tc.section >= 0 {
				var se *SectionError
				if !errors.As(err, &se) {
					t.Fatalf("error %v does not carry a SectionError", err)
				}
				if se.Section != tc.section {
					t.Fatalf("SectionError locates section %d, want %d", se.Section, tc.section)
				}
			}
		})
	}
}

// TestSegmentDishonestSection reuses the slot-table attack from the section
// corruption suite at segment level: a section whose checksum is valid but
// whose slot table lies must still be rejected before any read.
func TestSegmentDishonestSection(t *testing.T) {
	s := NewStore(goldenPairs, 1, goldenSalt)
	b := AppendSegment(nil, s)
	sec := b[headerBytes+segTableEntry:] // single section
	// Declare one pair more than the slots hold (a table of the same size),
	// re-checksum the section.
	le.PutUint64(sec[32:], le.Uint64(sec[32:])+1)
	le.PutUint64(sec[56:], checksum(sec[0:56], sec[headerBytes:]))
	// The super-header's pair total must agree with the section so the
	// failure is the slot-table scan, not the cheap total cross-check.
	le.PutUint64(b[24:], le.Uint64(b[24:])+1)
	fixSegChecksum(b)

	path := filepath.Join(t.TempDir(), "store.seg")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSegment(path)
	if !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("error %v, want ErrBadGeometry", err)
	}
	var se *SectionError
	if !errors.As(err, &se) || se.Section != 0 {
		t.Fatalf("error %v, want SectionError for section 0", err)
	}
}

// TestSegmentSerializationDeterminism asserts segment bytes are a pure
// function of store contents: independent of build parallelism, of whether
// the store was built from recycled arena memory, and of garbage left in a
// recycled serialization buffer.
func TestSegmentSerializationDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pairs := randomPairs(r, 20000, 9)
	const p, salt = 24, 0xABCD
	base := AppendSegment(nil, freezePairs(pairs, 4, p, salt, 1, nil, nil))
	for _, workers := range []int{2, 8} {
		got := AppendSegment(nil, freezePairs(pairs, 4, p, salt, workers, nil, nil))
		if !bytes.Equal(got, base) {
			t.Fatalf("workers=%d: segment bytes differ from sequential build", workers)
		}
	}

	arena := NewArena()
	arena.Recycle(freezePairs(pairs, 4, p, salt^7, 8, nil, nil))
	st := freezePairs(pairs, 4, p, salt, 8, nil, arena)
	dirty := make([]byte, len(base)+512)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	got := AppendSegment(dirty[:0], st)
	if !bytes.Equal(got, base) {
		t.Fatal("arena-recycled store + dirty buffer changed the segment bytes")
	}
}

// TestWriteBehindDeterminism publishes the same chain of stores through the
// write-behind publisher at build parallelism 1 and 8 and asserts every
// segment file on disk is byte-identical to WriteSegment's bytes for the same
// store — write-behind publishing must be invisible in the bytes.
func TestWriteBehindDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	rounds := make([][]KV, 4)
	for i := range rounds {
		rounds[i] = randomPairs(r, 3000+500*i, 4)
	}
	const p = 8
	salt := func(seq int) uint64 { return uint64(seq)*17 + 3 }

	want := make([][]byte, len(rounds))
	for seq, pairs := range rounds {
		path := filepath.Join(t.TempDir(), "store.seg")
		if _, err := WriteSegment(NewStore(pairs, p, salt(seq)), path, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = data
	}
	for _, workers := range []int{1, 8} {
		pub := NewFilePublisher(t.TempDir())
		for seq, pairs := range rounds {
			if _, err := pub.Publish(seq, freezePairs(pairs, 4, p, salt(seq), workers, nil, nil)); err != nil {
				t.Fatalf("workers=%d: publish %d: %v", workers, seq, err)
			}
			// Read each segment before the next write deletes it.
			if err := pub.Barrier(); err != nil {
				t.Fatalf("workers=%d: barrier: %v", workers, err)
			}
			got, err := os.ReadFile(filepath.Join(pub.Dir(), fmt.Sprintf(segFileFmt, seq)))
			if err != nil {
				t.Fatalf("workers=%d: store %d: %v", workers, seq, err)
			}
			if !bytes.Equal(got, want[seq]) {
				t.Errorf("workers=%d: store %d segment differs from WriteSegment's", workers, seq)
			}
		}
		if err := pub.Close(); err != nil {
			t.Fatalf("workers=%d: close publisher: %v", workers, err)
		}
	}
}

// TestSegmentEmptyStore covers the degenerate stores the runtime publishes:
// the empty D0 and rounds that wrote nothing round-trip through one segment.
func TestSegmentEmptyStore(t *testing.T) {
	for _, p := range []int{1, 4, 64} {
		s := NewStore(nil, p, 9)
		fs := segmentRoundTrip(t, s)
		if fs.Len() != 0 || fs.Shards() != p {
			t.Fatalf("p=%d: Len=%d Shards=%d", p, fs.Len(), fs.Shards())
		}
		if _, ok := fs.Get(Key{1, 1, 1}); ok {
			t.Fatal("empty store answered a Get")
		}
	}
}

// mixedStore returns a store of random pairs plus one key written dup
// times, whose long chain gives its shard a section past the writer's
// chunk.
func mixedStore(p, pairs, dup int) *Store {
	kvs := randomPairs(rand.New(rand.NewSource(41)), pairs, 3)
	for i := 0; i < dup; i++ {
		kvs = append(kvs, kv(7, 7, 7, int64(i), 0))
	}
	return NewStore(kvs, p, 0x5157)
}

// TestStreamSegmentMatchesAppend pins that the streamed write path puts the
// bytes AppendSegment assembles in memory on disk, a section spanning
// several write chunks included, whatever the number of cores encoding it.
func TestStreamSegmentMatchesAppend(t *testing.T) {
	s := mixedStore(12, 30000, writeChunk/2)
	want := AppendSegment(nil, s)
	sections, encs, err := sliceSections(want)
	if err != nil {
		t.Fatal(err)
	}
	long := func(sec []byte) bool { return len(sec) > writeChunk }
	if !bytes.Equal(encs, bytes.Repeat([]byte{encPacked}, 12)) || !slices.ContainsFunc(sections, long) {
		t.Fatalf("%d sections of encodings %v, want 12 packed, one past %d bytes", len(sections), encs, writeChunk)
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "store.seg")
		err := streamSegment(s, path, true, nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: streamed %d bytes, AppendSegment %d", procs, len(got), len(want))
		}
	}
}

// TestStreamSegmentCancel cancels a streamed write at each of its
// cancellation points in turn: every one must return the cancellation and
// leave neither the temp file nor the segment behind.
func TestStreamSegmentCancel(t *testing.T) {
	s := mixedStore(16, 20000, 0)
	points := 0
	count := func() error { points++; return nil }
	if err := streamSegment(s, filepath.Join(t.TempDir(), "store.seg"), true, count); err != nil {
		t.Fatal(err)
	}
	if points < 16 {
		t.Fatalf("%d cancellation points for 16 sections", points)
	}
	for k := 1; k <= points; k++ {
		dir := t.TempDir()
		calls := 0
		cancelAt := func() error {
			if calls++; calls >= k {
				return errPublishCancelled
			}
			return nil
		}
		if err := streamSegment(s, filepath.Join(dir, "store.seg"), true, cancelAt); !errors.Is(err, errPublishCancelled) {
			t.Fatalf("cancel at point %d: %v", k, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("cancel at point %d left %s behind", k, left[0].Name())
		}
	}
}

// segBenchStore is a 400 000-pair store over 32 shards, every section packed.
func segBenchStore() *Store { return mixedStore(32, 400000, 0) }

// BenchmarkStreamSegment times the streamed publish of a packed segment;
// run with -cpu 1,2 to see the encode striping.
func BenchmarkStreamSegment(b *testing.B) {
	s := segBenchStore()
	path := filepath.Join(b.TempDir(), "store.seg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := streamSegment(s, path, true, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/pair")
}

// BenchmarkOpenSegment times the verifying open of a packed segment, which
// checks and decodes every section; run with -cpu 1,2.
func BenchmarkOpenSegment(b *testing.B) {
	s := segBenchStore()
	path := filepath.Join(b.TempDir(), "store.seg")
	if _, err := WriteSegment(s, path, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := OpenSegment(path)
		if err != nil {
			b.Fatal(err)
		}
		fs.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/pair")
}
