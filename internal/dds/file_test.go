package dds

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden segments and fuzz seed corpora under testdata")

// goldenPairs is the fixed content of the committed golden store: duplicate
// keys (slab path), negative key and value words, and multiple tags, spread
// over two shards.
var goldenPairs = []KV{
	kv(1, 1, 0, 11, 111),
	kv(1, 2, 0, 22, 222),
	kv(2, 1, 1, 33, 333),
	kv(1, 1, 0, 44, 444),
	kv(1, 1, 0, 55, 555),
	kv(3, -7, 9, -66, 666),
	kv(2, 1, 1, 77, -777),
}

const (
	goldenShards = 2
	goldenSalt   = 0x5EED
	goldenDir    = "testdata/golden"
)

func goldenStore() *Store { return NewStore(goldenPairs, goldenShards, goldenSalt) }

// TestGoldenShardFiles pins the section format: every section of the
// committed golden segment must be byte-for-byte the section the codec packs
// today, and must open with OpenSection, the shard server's entry point, as
// a reader answering every read for the keys it owns. Any codec change that
// silently alters the format — field moves, endianness, checksum definition
// — fails here; deliberate format changes must bump shardVersion and
// regenerate with -update.
func TestGoldenShardFiles(t *testing.T) {
	s := goldenStore()
	ref := reference(goldenPairs)
	seg, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("missing golden segment (regenerate with -update): %v", err)
	}
	sections, encs, err := sliceSections(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != goldenShards {
		t.Fatalf("golden segment has %d sections, want %d", len(sections), goldenShards)
	}
	for i, sec := range sections {
		if want := packShard(nil, &s.shards[i], i, goldenShards, goldenSalt); !bytes.Equal(sec, want) {
			t.Errorf("shard %d: section no longer bit-identical to the committed format (%d vs %d bytes); "+
				"a deliberate format change must bump shardVersion and regenerate with -update",
				i, len(want), len(sec))
		}
		r, err := OpenSection(sec, encs[i], i)
		if err != nil {
			t.Fatalf("open section %d (encoding %d): %v", i, encs[i], err)
		}
		if r.Salt() != goldenSalt || r.ShardCount() != goldenShards || r.sh.size != s.ShardSizes()[i] {
			t.Fatalf("section %d metadata: salt=%#x shards=%d pairs=%d", i, r.Salt(), r.ShardCount(), r.sh.size)
		}
		for k, vs := range ref {
			if ShardOf(k, goldenSalt, goldenShards) != i {
				continue
			}
			if got := r.GetRange(k, 0, len(vs)+1, nil); !slices.Equal(got, vs) {
				t.Fatalf("section %d: GetRange(%v) = %v, want %v", i, k, got, vs)
			}
		}
	}
}

// TestShardCorruption is the corruption table: every way a section can be
// damaged maps to a typed error, so callers can distinguish "not a section"
// from "torn write" from "bit rot". The checksum covers every payload byte,
// so the rows that reach a check behind it recompute the checksum, as any
// sender can: a section whose shard count is zero would otherwise divide by
// zero on the first read routed to its store.
func TestShardCorruption(t *testing.T) {
	valid := packShard(nil, &goldenStore().shards[0], 0, 1, goldenSalt)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		index  int // the shard the block is opened as
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerBytes-12] }, ErrTruncated, 0},
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated, 0},
		{"truncated payload", func(b []byte) []byte { return fixChecksum(b[:len(b)-5]) }, ErrTruncated, 0},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic, 0},
		{"wrong version", func(b []byte) []byte { le.PutUint32(b[8:], shardVersion+1); return b }, ErrBadVersion, 0},
		{"future version", func(b []byte) []byte { le.PutUint32(b[8:], 0xFFFF); return b }, ErrBadVersion, 0},
		{"bad checksum", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, ErrChecksum, 0},
		{"flipped header field", func(b []byte) []byte { b[33] ^= 0x01; return b }, ErrChecksum, 0},
		{"wrong shard index", func(b []byte) []byte { le.PutUint32(b[12:], 7); return b }, ErrBadGeometry, 0},
		{"slot count not a power of two", func(b []byte) []byte { le.PutUint64(b[40:], 3); return fixChecksum(b) }, ErrBadGeometry, 0},
		{"declared payload beyond file", func(b []byte) []byte { le.PutUint64(b[48:], 1<<40); return fixChecksum(b) }, ErrTruncated, 0},
		{"trailing garbage", func(b []byte) []byte { return fixChecksum(append(b, 0xAA)) }, ErrBadGeometry, 0},
		{"zero shard count", func(b []byte) []byte { le.PutUint32(b[16:], 0); return fixChecksum(b) }, ErrBadGeometry, 0},
		{"shard count beyond cap", func(b []byte) []byte {
			le.PutUint32(b[16:], maxShardFiles+1)
			return fixChecksum(b)
		}, ErrBadGeometry, 0},
		{"shard index beyond count", func(b []byte) []byte { le.PutUint32(b[12:], 1); return fixChecksum(b) }, ErrBadGeometry, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), valid...))
			if _, err := OpenSection(buf, encSection, tc.index); err == nil {
				t.Fatalf("corrupted section opened cleanly")
			} else if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

// fixChecksum recomputes a mutated section's (or raw block's) checksum,
// making the structural validation behind the checksum gate reachable — the
// dishonest-writer case.
func fixChecksum(b []byte) []byte {
	le.PutUint64(b[56:], checksum(b[0:56], b[headerBytes:]))
	return b
}

// TestSlotTableValidation covers corruption that survives a recomputed
// checksum: a checksum proves the bytes match what some writer computed, not
// that the writer was honest, so the reader must reject slot tables whose
// probes would hang or read out of bounds. Each row edits the raw block's
// records and packs the result with the reference packer, which seals it.
func TestSlotTableValidation(t *testing.T) {
	base := rawBlock(&NewStore(goldenPairs, 1, goldenSalt).shards[0], 0, 1, goldenSalt)
	slotCount := int(le.Uint64(base[40:48]))
	findSlot := func(b []byte, pred func(cnt int32) bool) int {
		for off := headerBytes; off < headerBytes+slotCount*slotBytes; off += slotBytes {
			if pred(int32(le.Uint32(b[off+32:]))) {
				return off
			}
		}
		t.Fatal("no slot matches predicate")
		return -1
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"pair count disagrees with slot counts", func(b []byte) []byte {
			le.PutUint64(b[32:], le.Uint64(b[32:])+1)
			return b
		}},
		{"slab window outside slab", func(b []byte) []byte {
			off := findSlot(b, func(c int32) bool { return c > 1 })
			le.PutUint32(b[off+36:], 1<<30)
			return b
		}},
		{"negative slot count", func(b []byte) []byte {
			off := findSlot(b, func(c int32) bool { return c == 1 })
			le.PutUint32(b[off+32:], 0x80000001)
			return b
		}},
		{"no empty slot", func(b []byte) []byte {
			for off := headerBytes; off < headerBytes+slotCount*slotBytes; off += slotBytes {
				if le.Uint32(b[off+32:]) == 0 {
					le.PutUint32(b[off+32:], 1)
				}
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := packRawBlock(nil, tc.mutate(append([]byte(nil), base...)))
			if _, err := OpenSection(buf, encSection, 0); err == nil {
				t.Fatal("dishonest slot table opened cleanly")
			} else if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("error %v, want errors.Is(..., ErrBadGeometry)", err)
			}
		})
	}
}
