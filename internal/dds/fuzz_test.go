package dds

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// fuzzSizeCap bounds fuzz inputs for the codec targets: mutated inputs
// beyond 1 MiB only add file IO per exec (pathologically slow on
// discard-mounted filesystems), never reader coverage — every header and
// table field the reader branches on sits in the first kilobytes.
const fuzzSizeCap = 1 << 20

// decodeFuzzPairs interprets fuzz bytes as a KV workload: byte 0 picks the
// shard count, the next 8 bytes the placement salt, then every 6-byte record
// is one pair. The key space is deliberately tiny so random inputs produce
// long duplicate-key chains and exercise the overflow slab; value A is the
// write position, making any index-order corruption visible. A record whose
// first byte has its top bit set shifts key A by 33 bits, and a non-zero
// fourth byte pushes value B below -2^31: both spill out of a slot's int32
// words.
func decodeFuzzPairs(data []byte) (pairs []KV, p int, salt uint64) {
	p, salt = 1, 0x9E
	if len(data) > 0 {
		p = int(data[0]&0x0F) + 1
		data = data[1:]
	}
	if len(data) >= 8 {
		salt = le.Uint64(data)
		data = data[8:]
	}
	for i := 0; i+6 <= len(data); i += 6 {
		rec := data[i : i+6]
		a := int64(int8(rec[1])) % 20
		if rec[0]&0x80 != 0 {
			a <<= 33
		}
		pairs = append(pairs, KV{
			Key: Key{Tag: rec[0] % 5, A: a, B: int64(rec[2] % 3)},
			Value: Value{
				A: int64(len(pairs)),
				B: int64(le.Uint16(rec[4:6])) - int64(rec[3])<<32,
			},
		})
	}
	return pairs, p, salt
}

// fuzzSeeds is the committed seed corpus (testdata/fuzz/FuzzShardCodec),
// regenerated by -update: empty store, single pair, a long duplicate chain,
// negative key words, and a multi-shard mixed workload.
func fuzzSeeds() [][]byte {
	dup := []byte{3, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 24; i++ {
		dup = append(dup, 1, 5, 1, byte(i), byte(i), 1) // same key every record
	}
	mixed := []byte{9, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	for i := 0; i < 40; i++ {
		mixed = append(mixed, byte(i*7), byte(i*13), byte(i), byte(i*3), byte(i*5), byte(255-i))
	}
	return [][]byte{
		{},
		{4},
		{2, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 0, 10, 20, 30},
		dup,
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0x80, 2, 1, 2, 3, 4, 0xFF, 1, 9, 9, 9},
		mixed,
	}
}

// wideFuzzSeed is a FuzzShardCodec input whose pairs interleave narrow and
// wide keys and values under shared keys.
func wideFuzzSeed() []byte {
	seed := []byte{2, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 30; i++ {
		seed = append(seed, byte(i%2)<<7|byte(i%3), byte(i%4), 1, byte(i%3), byte(i), 1)
	}
	return seed
}

// FuzzShardCodec round-trips arbitrary KV multisets through the section
// codec the rpc wire carries — EncodeSections → OpenSection with full
// verification, shard by shard — and demands the readers answer Get,
// GetRange and Count exactly like a reference map built from the same pairs.
func FuzzShardCodec(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add(wideFuzzSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzSizeCap {
			t.Skip("oversized input: every header field is within the first 64 bytes")
		}
		pairs, p, salt := decodeFuzzPairs(data)
		mem := NewStore(pairs, p, salt)
		_, sections, encs := EncodeSections(nil, mem)
		readers := make([]*ShardReader, p)
		for i := range readers {
			r, err := OpenSection(sections[i], encs[i], i)
			if err != nil {
				t.Fatalf("OpenSection rejected its own encoding %d: %v", encs[i], err)
			}
			if r.sh.size != mem.ShardSizes()[i] || r.ShardCount() != p || r.Salt() != salt {
				t.Fatalf("shard %d metadata drift: pairs %d/%d shards %d/%d salt %#x/%#x",
					i, r.sh.size, mem.ShardSizes()[i], r.ShardCount(), p, r.Salt(), salt)
			}
			readers[i] = r
		}
		owner := func(k Key) *ShardReader { return readers[ShardOf(k, salt, p)] }
		for k, vs := range reference(pairs) {
			r := owner(k)
			if got := r.Count(k); got != len(vs) {
				t.Fatalf("Count(%v) = %d, want %d", k, got, len(vs))
			}
			if v, ok := r.Get(k); !ok || v != vs[0] {
				t.Fatalf("Get(%v) = %v ok=%v, want %v", k, v, ok, vs[0])
			}
			if got := r.GetRange(k, 0, len(vs)+1, nil); !slices.Equal(got, vs) {
				t.Fatalf("GetRange(%v) = %v, want %v", k, got, vs)
			}
		}
		for _, k := range []Key{{9, 0, 0}, {9, 5, 1}, {0, 99, 0}, {4, -21, 2}} {
			if _, ok := owner(k).Get(k); ok {
				t.Fatalf("absent key %v answered a Get", k)
			}
		}
	})
}

// FuzzOpenSection feeds arbitrary bytes, encoding byte and shard index to
// OpenSection, the entry point a shard server exposes to the network:
// whatever the input, it must either fail with an error or yield a reader
// whose reads and routing do not crash — no input may panic the decoder,
// the probe arithmetic or the shard modulo, or slice past the section. An
// encoding byte other than encSection must always be refused, and so must
// a version 1 (varint) section; the seeds include raw blocks under encoding
// 0, valid sections under 2, and the version 1 sections of the version 3
// golden segment.
func FuzzOpenSection(f *testing.F) {
	golden := goldenStore()
	valid := packShard(nil, &golden.shards[0], 0, 1, goldenSalt)
	f.Add(valid, encSection, uint8(0))
	f.Add(valid[:headerBytes], encSection, uint8(0))
	f.Add(valid[:len(valid)-3], encSection, uint8(0))
	f.Add([]byte(shardMagic), encSection, uint8(0))
	f.Add([]byte{}, encSection, uint8(0))
	seg, err := os.ReadFile(goldenSegment)
	if err != nil {
		f.Fatal(err)
	}
	sections, encs, err := sliceSections(seg)
	if err != nil {
		f.Fatal(err)
	}
	for i, sec := range sections {
		f.Add(sec, encs[i], uint8(i))
		f.Add(rawBlock(&golden.shards[i], i, goldenShards, goldenSalt), byte(0), uint8(i))
	}
	// Valid sections under an encoding byte the reader does not implement.
	seeds := segmentByteSeeds(f)
	sections, _, err = sliceSections(seeds[1])
	if err != nil {
		f.Fatal(err)
	}
	for i, sec := range sections {
		f.Add(sec, byte(2), uint8(i))
	}
	// Wide records, encoded and raw: spilled keys and values.
	wide := wideSeedStore()
	_, encoded, encs := EncodeSections(nil, wide)
	for i := range encoded {
		f.Add(encoded[i], encs[i], uint8(i))
		f.Add(rawBlock(&wide.shards[i], i, len(encoded), wide.salt), byte(0), uint8(i))
	}
	// Version 1 sections, which a reader of version 2 refuses.
	old, err := os.ReadFile(goldenSegmentV3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < goldenShards; i++ {
		e := old[headerBytes+i*segTableEntry:]
		off, n := le.Uint64(e), le.Uint64(e[8:])
		f.Add(old[off:off+n], encSection, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, enc byte, index uint8) {
		r, err := OpenSection(data, enc, int(index))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if enc != encSection || le.Uint32(data[8:]) != shardVersion {
			t.Fatalf("a section of encoding %d, version %d opened", enc, le.Uint32(data[8:]))
		}
		for _, k := range []Key{{1, 1, 0}, {2, 1, 1}, {0, 0, 0}} {
			ShardOf(k, r.Salt(), r.ShardCount())
			r.Get(k)
			r.Count(k)
			r.GetRange(k, 0, 4, nil)
		}
	})
}

// FuzzSegmentCodec is the segment-format twin of FuzzShardCodec: arbitrary
// KV multisets round-trip through serialize→single segment file→decode→read
// and must answer every query exactly like the in-memory store — and the
// segment bytes must be identical whether serialized into a fresh or a
// recycled dirty buffer.
func FuzzSegmentCodec(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzSizeCap {
			t.Skip("oversized input: every header field is within the first 64 bytes")
		}
		pairs, p, salt := decodeFuzzPairs(data)
		mem := NewStore(pairs, p, salt)
		fresh := AppendSegment(nil, mem)
		dirty := make([]byte, len(fresh))
		for i := range dirty {
			dirty[i] = 0xEE
		}
		if got := AppendSegment(dirty[:0], mem); string(got) != string(fresh) {
			t.Fatal("segment bytes depend on the serialization buffer's prior contents")
		}
		path := filepath.Join(t.TempDir(), "store.seg")
		if _, err := WriteSegment(mem, path, nil); err != nil {
			t.Fatalf("WriteSegment: %v", err)
		}
		fs, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("OpenSegment rejected its own serialization: %v", err)
		}
		defer fs.Close()

		if fs.Len() != mem.Len() || fs.Shards() != mem.Shards() || fs.Salt() != mem.Salt() {
			t.Fatalf("metadata drift: len %d/%d shards %d/%d salt %#x/%#x",
				fs.Len(), mem.Len(), fs.Shards(), mem.Shards(), fs.Salt(), mem.Salt())
		}
		ms, fss := mem.ShardSizes(), fs.ShardSizes()
		for i := range ms {
			if ms[i] != fss[i] {
				t.Fatalf("shard %d size %d vs %d", i, ms[i], fss[i])
			}
		}
		absent := []Key{{9, 0, 0}, {9, 5, 1}, {0, 99, 0}, {4, -21, 2}}
		checkAgainstReference(t, fs, reference(pairs), absent)
	})
}

// wideSeedStore is a two-shard store whose records take every flag
// combination: wide keys, wide first values and both, each also under a
// duplicated key.
func wideSeedStore() *Store {
	return NewStore(widePairs(rand.New(rand.NewSource(35)), 300), 2, 0x5EED1)
}

// segmentByteSeeds builds deterministic whole-segment seeds covering every
// section encoding byte and format version the reader sees: raw blocks
// under encoding 0 (the form earlier writers produced, which must be
// refused), a segment as the writer encodes it, that segment with section
// 0's encoding byte set to 2 under a valid super-header checksum, so the
// refusals are reachable past the checksum gate, and the version 3 golden
// segment of varint sections, which must be refused too.
func segmentByteSeeds(tb testing.TB) [][]byte {
	r := rand.New(rand.NewSource(606))
	s := NewStore(randomPairs(r, 800, 5), 2, 0x5EED1)
	encoded := AppendSegment(nil, s)
	unknown := append([]byte(nil), encoded...)
	unknown[headerBytes+16] = 2
	old, err := os.ReadFile(goldenSegmentV3)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{rawSegment(s), encoded, fixSegChecksum(unknown), old}
}

// FuzzOpenSegment feeds arbitrary bytes to the segment reader: whatever the
// bytes, OpenSegment must either fail with an error or yield a store whose
// reads do not crash — no input may panic the probe arithmetic, the section
// slicing, the section decoder, or map past the file.
func FuzzOpenSegment(f *testing.F) {
	valid := AppendSegment(nil, goldenStore())
	f.Add(valid)
	f.Add(valid[:headerBytes])
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(segmentMagic))
	f.Add([]byte{})
	for _, seed := range segmentByteSeeds(f) {
		f.Add(seed)
	}
	f.Add(AppendSegment(nil, wideSeedStore()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzSizeCap {
			t.Skip("oversized input: every header field is within the first 64 bytes")
		}
		path := filepath.Join(t.TempDir(), "store.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenSegment(path)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		defer fs.Close()
		for _, k := range []Key{{1, 1, 0}, {2, 1, 1}, {0, 0, 0}} {
			fs.Get(k)
			fs.Count(k)
			fs.GetRange(k, 1, 2, nil)
			fs.GetRange(k, 0, 4, nil)
		}
	})
}

// TestWriteFuzzCorpus (with -update) materializes the seed corpora in the Go
// fuzzing corpus-file encoding, so CI replays the seeds as regression inputs
// without -fuzz. The workload seeds, wide records included, feed the shard
// and segment codec fuzzers; the reader fuzzer gets whole-segment byte
// seeds: raw blocks, encoded sections, an unknown encoding byte and a
// version 3 segment.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update to regenerate the seed corpus")
	}
	corpora := map[string][][]byte{
		"FuzzShardCodec":   append(fuzzSeeds(), wideFuzzSeed()),
		"FuzzSegmentCodec": append(fuzzSeeds(), wideFuzzSeed()),
		"FuzzOpenSegment":  segmentByteSeeds(t),
	}
	for target, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
