package dds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// roundTrip serializes s with AppendSegment, the in-memory encoder the wire
// uses, writes the bytes to a file and opens it back with full verification,
// failing the test on any codec error. The store is closed when the test
// finishes.
func roundTrip(t testing.TB, s *Store) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.seg")
	if err := os.WriteFile(path, AppendSegment(nil, s), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	t.Cleanup(func() {
		if err := fs.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return fs
}

// segmentRoundTrip writes s with WriteSegment, the streamed file writer, and
// opens it back with full verification, failing the test on any codec
// error.
func segmentRoundTrip(t testing.TB, s *Store) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.seg")
	if _, err := WriteSegment(s, path, nil); err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	fs, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	t.Cleanup(func() {
		if err := fs.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return fs
}

// forEachBackend runs fn once per storage backend as subtests: against the
// in-memory store itself, against its AppendSegment round-trip, and against
// its WriteSegment round-trip. Every read-path test in this package
// goes through it, so any future backend added here is locked to the same
// semantics mechanically.
func forEachBackend(t *testing.T, s *Store, fn func(t *testing.T, b StoreBackend)) {
	t.Run("mem", func(t *testing.T) { fn(t, s) })
	t.Run("file", func(t *testing.T) { fn(t, roundTrip(t, s)) })
	t.Run("segment", func(t *testing.T) { fn(t, segmentRoundTrip(t, s)) })
}

// TestSegmentMatchesReference is the segment twin of
// TestFlatStoreMatchesReference: random pair sets with heavy duplicate keys,
// round-tripped through the codec, must answer every read exactly like a
// map[Key][]Value built in the same order.
func TestSegmentMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 12; trial++ {
		n := r.Intn(3000) + 1
		dup := []int{1, 3, 16, 200}[trial%4]
		p := r.Intn(16) + 1
		pairs := randomPairs(r, n, dup)
		ref := reference(pairs)
		s := NewStore(pairs, p, r.Uint64())
		fs := roundTrip(t, s)
		absent := make([]Key, 50)
		for i := range absent {
			absent[i] = Key{Tag: 9, A: int64(r.Intn(n + 1)), B: int64(r.Intn(8))}
		}
		checkAgainstReference(t, fs, ref, absent)
		if fs.Len() != n || fs.Shards() != p || fs.Salt() != s.Salt() {
			t.Fatalf("trial %d: Len/Shards/Salt drifted through the codec", trial)
		}
	}
}

// TestSegmentShardMetadata pins the serialized metadata: shard sizes, pair
// count, shard count and salt survive the round-trip bit-exactly, and load
// accounting starts from zero on the reopened store.
func TestSegmentShardMetadata(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pairs := randomPairs(r, 5000, 7)
	s := NewStore(pairs, 13, 0xFEED)
	s.Get(pairs[0].Key) // dirty the mem store's load counters
	fs := roundTrip(t, s)

	ms, fss := s.ShardSizes(), fs.ShardSizes()
	if len(ms) != len(fss) {
		t.Fatalf("shard count %d vs %d", len(ms), len(fss))
	}
	for i := range ms {
		if ms[i] != fss[i] {
			t.Fatalf("shard %d size %d vs %d", i, ms[i], fss[i])
		}
	}
	for i, l := range fs.ShardLoads() {
		if l != 0 {
			t.Fatalf("fresh decoded store shard %d load = %d", i, l)
		}
	}
	fs.Get(pairs[0].Key)
	if fs.MaxShardLoad() != 1 {
		t.Fatalf("decoded store MaxShardLoad = %d after one query", fs.MaxShardLoad())
	}
	fs.ResetLoads()
	if fs.MaxShardLoad() != 0 {
		t.Fatal("decoded store ResetLoads did not zero counters")
	}
}

// TestSegmentReserializes pins the decoder's slot placement, occupancy bits
// and slab offsets: a store decoded from AppendSegment's or WriteSegment's
// segment must serialize back to exactly the bytes of the store it came
// from — for heavy duplicate chains, and for stores so small most of their
// shards are empty — and the golden segment must reopen to its own bytes.
func TestSegmentReserializes(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, p := range []int{1, 13, 64} {
		for _, pairs := range [][]KV{randomPairs(r, 4000, 200), randomPairs(r, 30, 3), nil} {
			s := NewStore(pairs, p, r.Uint64())
			want := AppendSegment(nil, s)
			for name, open := range map[string]func(testing.TB, *Store) *Store{"AppendSegment": roundTrip, "WriteSegment": segmentRoundTrip} {
				if got := AppendSegment(nil, open(t, s)); !bytes.Equal(got, want) {
					t.Fatalf("p=%d, %d pairs, %s: re-serialized segment differs (%d vs %d bytes)",
						p, len(pairs), name, len(got), len(want))
				}
			}
		}
	}
	want, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("missing golden segment (regenerate with -update): %v", err)
	}
	s, err := OpenSegment(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendSegment(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("golden segment re-serializes to %d bytes that differ from its own", len(got))
	}
}

// TestEmptyStoreRoundTrip covers the degenerate stores the runtime actually
// publishes: the empty D0 and rounds that wrote nothing.
func TestEmptyStoreRoundTrip(t *testing.T) {
	for _, p := range []int{1, 4, 64} {
		s := NewStore(nil, p, 9)
		fs := roundTrip(t, s)
		if fs.Len() != 0 || fs.Shards() != p {
			t.Fatalf("p=%d: Len=%d Shards=%d", p, fs.Len(), fs.Shards())
		}
		if _, ok := fs.Get(Key{1, 1, 1}); ok {
			t.Fatal("empty store answered a Get")
		}
		if got := fs.GetRange(Key{1, 1, 1}, 0, 5, nil); len(got) != 0 {
			t.Fatalf("empty store GetRange returned %d values", len(got))
		}
	}
}

// segPath returns the segment path the publisher uses for store seq.
func segPath(pub *FilePublisher, seq int) string {
	return filepath.Join(pub.Dir(), fmt.Sprintf(segFileFmt, seq))
}

// TestFilePublisherLifecycle exercises the Publisher contract the runtime
// relies on under write-behind: Publish returns the frozen store itself,
// Barrier makes the segment durable, a superseded segment is deleted once
// the next write starts, the latest segment survives, and a publisher-owned
// temp directory disappears on publisher Close.
func TestFilePublisherLifecycle(t *testing.T) {
	pub := NewFilePublisher("")
	sa := NewStore([]KV{kv(1, 1, 0, 10, 0)}, 2, 5)
	a, err := pub.Publish(0, sa)
	if err != nil {
		t.Fatal(err)
	}
	if a != StoreBackend(sa) {
		t.Fatalf("Publish returned %T, want the published *Store itself", a)
	}
	base := pub.Dir()
	if base == "" {
		t.Fatal("publisher did not create a temp dir")
	}
	if err := pub.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	aPath := segPath(pub, 0)
	if _, err := os.Stat(aPath); err != nil {
		t.Fatalf("segment not durable after barrier: %v", err)
	}

	// Salts rotate per generation, as the runtime draws them.
	if _, err := pub.Publish(1, NewStore([]KV{kv(1, 2, 0, 20, 0)}, 2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Superseded-segment deletion is deferred to the next publish's
	// background goroutine (unlink cost must not extend the synchronous
	// publish phase), so the first segment disappears once a third publish
	// runs.
	if _, err := pub.Publish(2, NewStore([]KV{kv(1, 5, 0, 50, 0)}, 2, 7)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aPath); err == nil {
		t.Fatal("superseded segment was not removed")
	}
	cPath := segPath(pub, 2)
	if fs, err := OpenSegment(cPath); err != nil {
		t.Fatalf("latest segment unreadable: %v", err)
	} else {
		fs.Close()
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("publisher Close: %v", err)
	}
	if _, err := os.Stat(cPath); err == nil {
		t.Fatal("publisher-owned temp dir survived Close")
	}
}

// sameAnswers asserts that got answers Get, Count and GetRange — each index
// alone and the whole range — for every key exactly like want, including one
// index past each key's values.
func sameAnswers(t *testing.T, got, want StoreBackend, keys []Key) {
	t.Helper()
	if got.Len() != want.Len() || got.Shards() != want.Shards() {
		t.Fatalf("Len/Shards %d/%d, want %d/%d", got.Len(), got.Shards(), want.Len(), want.Shards())
	}
	for _, k := range keys {
		n := want.Count(k)
		if c := got.Count(k); c != n {
			t.Fatalf("Count(%v) = %d, want %d", k, c, n)
		}
		gv, gok := got.Get(k)
		wv, wok := want.Get(k)
		if gv != wv || gok != wok {
			t.Fatalf("Get(%v) = %v %v, want %v %v", k, gv, gok, wv, wok)
		}
		for i := 0; i <= n; i++ {
			if g, w := got.GetRange(k, i, i+1, nil), want.GetRange(k, i, i+1, nil); !slices.Equal(g, w) {
				t.Fatalf("GetRange(%v, %d, %d) = %v, want %v", k, i, i+1, g, w)
			}
		}
		gr, wr := got.GetRange(k, 0, n+1, nil), want.GetRange(k, 0, n+1, nil)
		if len(gr) != len(wr) {
			t.Fatalf("GetRange(%v) returned %d values, want %d", k, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("GetRange(%v)[%d] = %v, want %v", k, i, gr[i], wr[i])
			}
		}
	}
}

// TestFilePublisherSegmentsMatchStore checks the segments end to end: no
// round reads them back, so after each Barrier the new segment is opened
// and must answer every key exactly like the in-memory store it was written
// from. The chain covers a plain store, a dup-heavy store, an empty store
// and a one-shard store whose section is past the size above which earlier
// writers left a section raw.
func TestFilePublisherSegmentsMatchStore(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	large := make([]KV, 50000)
	for i := range large {
		large[i] = kv(1, int64(i), 0, int64(i)*10, 0)
	}
	stores := []struct {
		name  string
		pairs []KV
		p     int
	}{
		{"packed", randomPairs(r, 4000, 3), 8},
		{"dup-heavy", randomPairs(r, 6000, 200), 5},
		{"empty", nil, 4},
		{"large-one-shard", large, 1},
		{"many-shards", randomPairs(r, 3000, 1), 64},
	}
	pub := NewFilePublisher(t.TempDir())
	defer pub.Close()
	for seq, tc := range stores {
		s := NewStore(tc.pairs, tc.p, uint64(seq)*7919+1)
		keys := make([]Key, 0, len(tc.pairs)+1)
		for _, p := range tc.pairs {
			keys = append(keys, p.Key)
		}
		keys = append(keys, Key{Tag: 9, A: -1, B: -1}) // absent
		if _, err := pub.Publish(seq, s); err != nil {
			t.Fatalf("%s: publish: %v", tc.name, err)
		}
		if err := pub.Barrier(); err != nil {
			t.Fatalf("%s: barrier: %v", tc.name, err)
		}
		path := segPath(pub, seq)
		if tc.name == "large-one-shard" {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, encs, err := sliceSections(data); err != nil || encs[0] != encSection {
				t.Fatalf("%s: section encodings %v (%v), want the large shard packed", tc.name, encs, err)
			}
		}
		fs, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("%s: OpenSegment: %v", tc.name, err)
		}
		sameAnswers(t, fs, s, keys)
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFilePublisherExplicitDirKept asserts a caller-supplied directory is
// left in place with the latest segment after the publisher closes.
func TestFilePublisherExplicitDirKept(t *testing.T) {
	dir := t.TempDir()
	pub := NewFilePublisher(dir)
	s, err := pub.Publish(0, NewStore([]KV{kv(1, 7, 0, 70, 0)}, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	last := segPath(pub, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSegment(last)
	if err != nil {
		t.Fatalf("latest segment gone from explicit dir: %v", err)
	}
	defer reopened.Close()
	if v, ok := reopened.Get(Key{1, 7, 0}); !ok || v.A != 70 {
		t.Fatalf("reopened Get = %v ok=%v", v, ok)
	}
}

// TestFilePublisherCancelledPublish kills a write-behind publish through its
// context: the publish must fail from Barrier with the context's error, the
// backend must keep answering reads from memory, and no partial segment or
// temp file may survive anywhere under the run directory.
func TestFilePublisherCancelledPublish(t *testing.T) {
	dir := t.TempDir()
	pub := NewFilePublisher(dir)
	ctx, cancel := context.WithCancel(context.Background())
	pub.SetContext(ctx)
	cancel() // the in-flight writer observes this before any chunk is written

	s := NewStore([]KV{kv(1, 3, 0, 30, 0)}, 4, 9)
	ps, err := pub.Publish(0, s)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := pub.Barrier(); !errors.Is(err, context.Canceled) {
		t.Fatalf("barrier error = %v, want context.Canceled", err)
	}
	if v, ok := ps.Get(Key{1, 3, 0}); !ok || v.A != 30 {
		t.Fatalf("cancelled publish stopped serving reads: %v ok=%v", v, ok)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	var leftover []string
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// Liveness lock files are infrastructure, not publish artifacts:
		// they mark run directories as owned so a later run's startup
		// sweep can tell crashed leftovers from live publishers.
		if !d.IsDir() && filepath.Base(path) != runLockName && filepath.Base(path) != ".ampc-dir.lock" {
			leftover = append(leftover, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("partial files survived a cancelled publish: %v", leftover)
	}
}

// TestFilePublisherClosedMidFlight covers the Close path: closing the
// publisher with a publish still in flight aborts the write, removes its
// temp file, and a later Publish refuses to run.
func TestFilePublisherClosedMidFlight(t *testing.T) {
	dir := t.TempDir()
	pub := NewFilePublisher(dir)
	s := NewStore([]KV{kv(1, 6, 0, 60, 0)}, 2, 1)
	if _, err := pub.Publish(0, s); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".tmp" {
			t.Fatalf("temp file survived Close: %s", path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(1, s); err == nil {
		t.Fatal("Publish after Close succeeded")
	}
}
