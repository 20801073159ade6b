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

// shardBlock serializes one shard as a standalone block.
func shardBlock(sh *shard, index, count int, salt uint64) []byte {
	b := make([]byte, shardBlockBytes(sh))
	fillShardBlock(b, sh, index, count, salt)
	return b
}

// TestGoldenShardFiles pins the shard block format: every section of the
// committed raw golden segment must be byte-for-byte the block the codec
// serializes today, and each must open as a ShardReader answering every
// read for the keys it owns. Any codec change that silently alters the
// format — field moves, endianness, checksum definition — fails here;
// deliberate format changes must bump shardVersion and regenerate with
// -update.
func TestGoldenShardFiles(t *testing.T) {
	s := goldenStore()
	seg, err := os.ReadFile(goldenSegmentRaw)
	if err != nil {
		t.Fatalf("missing golden segment (regenerate with -update): %v", err)
	}
	sections, err := SegmentSections(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != goldenShards {
		t.Fatalf("golden segment has %d sections, want %d", len(sections), goldenShards)
	}
	ref := reference(goldenPairs)
	for i, sec := range sections {
		if want := shardBlock(&s.shards[i], i, goldenShards, goldenSalt); !bytes.Equal(sec, want) {
			t.Errorf("shard %d: block serialization no longer bit-identical to the committed format (%d vs %d bytes); "+
				"a deliberate format change must bump shardVersion and regenerate with -update",
				i, len(want), len(sec))
		}
		r, err := OpenShardBlock(sec, i, true)
		if err != nil {
			t.Fatalf("open golden block %d: %v", i, err)
		}
		if r.Salt() != goldenSalt || r.ShardCount() != goldenShards || r.Pairs() != s.ShardSizes()[i] {
			t.Fatalf("golden block %d metadata: salt=%#x shards=%d pairs=%d", i, r.Salt(), r.ShardCount(), r.Pairs())
		}
		for k, vs := range ref {
			if !r.Owns(k) {
				continue
			}
			if got := r.GetRange(k, 0, len(vs)+1, nil); !slices.Equal(got, vs) {
				t.Fatalf("golden block %d: GetRange(%v) = %v, want %v", i, k, got, vs)
			}
		}
	}
}

// TestShardCorruption is the corruption table: every way a shard block can
// be damaged maps to a typed error, so callers can distinguish "not a shard
// block" from "torn write" from "bit rot".
func TestShardCorruption(t *testing.T) {
	valid := shardBlock(&goldenStore().shards[0], 0, 1, goldenSalt)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerBytes-12] }, ErrTruncated},
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"wrong version", func(b []byte) []byte { le.PutUint32(b[8:], shardVersion+1); return b }, ErrBadVersion},
		{"future version", func(b []byte) []byte { le.PutUint32(b[8:], 0xFFFF); return b }, ErrBadVersion},
		{"bad checksum", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, ErrChecksum},
		{"flipped header field", func(b []byte) []byte { b[33] ^= 0x01; return b }, ErrChecksum},
		{"wrong shard index", func(b []byte) []byte { le.PutUint32(b[12:], 7); return b }, ErrBadGeometry},
		{"slot count not a power of two", func(b []byte) []byte { le.PutUint64(b[40:], 3); return b }, ErrBadGeometry},
		{"declared payload beyond file", func(b []byte) []byte { le.PutUint64(b[48:], 1<<40); return b }, ErrTruncated},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), valid...))
			if _, err := OpenShardBlock(buf, 0, true); err == nil {
				t.Fatalf("corrupted block opened cleanly")
			} else if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

// fixChecksum recomputes a mutated block's checksum, making the structural
// validation behind the checksum gate reachable — the dishonest-writer case.
func fixChecksum(b []byte) []byte {
	le.PutUint64(b[56:], checksum(b[0:56], b[headerBytes:]))
	return b
}

// TestSlotTableValidation covers corruption that survives a recomputed
// checksum: a checksum proves the bytes match what some writer computed, not
// that the writer was honest, so the reader must reject slot tables whose
// probes would hang or read out of bounds.
func TestSlotTableValidation(t *testing.T) {
	base := shardBlock(&NewStore(goldenPairs, 1, goldenSalt).shards[0], 0, 1, goldenSalt)
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
			return fixChecksum(b)
		}},
		{"slab window outside slab", func(b []byte) []byte {
			off := findSlot(b, func(c int32) bool { return c > 1 })
			le.PutUint32(b[off+36:], 1<<30)
			return fixChecksum(b)
		}},
		{"negative slot count", func(b []byte) []byte {
			off := findSlot(b, func(c int32) bool { return c == 1 })
			le.PutUint32(b[off+32:], 0x80000001)
			return fixChecksum(b)
		}},
		{"no empty slot", func(b []byte) []byte {
			for off := headerBytes; off < headerBytes+slotCount*slotBytes; off += slotBytes {
				if le.Uint32(b[off+32:]) == 0 {
					le.PutUint32(b[off+32:], 1)
				}
			}
			return fixChecksum(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), base...))
			if _, err := OpenShardBlock(buf, 0, true); err == nil {
				t.Fatal("dishonest slot table opened cleanly")
			} else if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("error %v, want errors.Is(..., ErrBadGeometry)", err)
			}
		})
	}
}
