package ampc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ampc/internal/dds"
)

// chase runs a few rounds of pointer doubling over n keys on rt, reading
// adaptively and writing every round, and returns the final labels read
// driver-side — a small workload that exercises execute, freeze, publish
// and driver reads on whatever backend rt was configured with.
func chase(t *testing.T, rt *Runtime, n int) []int64 {
	t.Helper()
	input := make([]dds.KV, n)
	for i := range input {
		input[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64((i+1)%n), 0)}
	}
	rt.SetInput(input)
	for r := 0; r < 3; r++ {
		err := rt.Round(fmt.Sprintf("hop-%d", r), func(ctx *Ctx) error {
			for x := ctx.Machine; x < n; x += ctx.P {
				v, _ := ctx.Read(key(int64(x), 0))
				w, _ := ctx.Read(key(v.A, 0))
				ctx.Write(key(int64(x), 0), w)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]int64, n)
	for i := range out {
		v, ok := rt.Store().Get(key(int64(i), 0))
		if !ok {
			t.Fatalf("key %d missing from final store", i)
		}
		out[i] = v.A
	}
	return out
}

// TestWriteBehindBackendMatchesMem runs the same computation on the mem
// backend and on write-behind file publishers, for worker counts 1 and 8,
// and requires identical outputs — the runtime-level half of the backend
// differential.
func TestWriteBehindBackendMatchesMem(t *testing.T) {
	const n = 256
	mk := func(backend dds.Publisher, workers int) Config {
		return Config{P: 16, S: 200, Seed: 7, Workers: workers, Backend: backend}
	}
	memRT := New(mk(nil, 1))
	defer memRT.Close()
	want := chase(t, memRT, n)

	for _, workers := range []int{1, 8} {
		rt := New(mk(dds.NewFilePublisher(""), workers))
		got := chase(t, rt, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
		stats := rt.Stats()
		rt.Close()
		if len(stats) != 3 {
			t.Fatalf("workers=%d: %d rounds recorded", workers, len(stats))
		}
	}
}

// TestClosJoinsWriteBehindPublish pins the Close contract: closing the
// runtime joins the in-flight write-behind publish, so the final round's
// segment is durable in a caller-supplied store directory after Close — and
// no temp file survives anywhere under it. The segment must answer every key
// exactly like the final store read before Close.
func TestClosJoinsWriteBehindPublish(t *testing.T) {
	const n = 128
	dir := t.TempDir()
	pub := dds.NewFilePublisher(dir)
	rt := New(Config{P: 8, S: 200, Seed: 3, Backend: pub})
	chase(t, rt, n)
	final := rt.Store()
	wantLen := final.Len()
	want := make([][]dds.Value, n)
	for i := range want {
		k := key(int64(i), 0)
		want[i] = final.GetRange(k, 0, final.Count(k), nil)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var segments, temps []string
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".seg":
			segments = append(segments, path)
		case ".tmp":
			temps = append(temps, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("temp files survived Close: %v", temps)
	}
	if len(segments) != 1 {
		t.Fatalf("store dir holds %d segments after Close, want exactly the final one: %v", len(segments), segments)
	}
	fs, err := dds.OpenSegment(segments[0])
	if err != nil {
		t.Fatalf("final segment unreadable after Close: %v", err)
	}
	defer fs.Close()
	if fs.Len() != wantLen || wantLen == 0 {
		t.Fatalf("final segment holds %d pairs, the final store %d", fs.Len(), wantLen)
	}
	for i, vs := range want {
		k := key(int64(i), 0)
		got := fs.GetRange(k, 0, len(vs)+1, nil)
		if len(got) != len(vs) || fs.Count(k) != len(vs) {
			t.Fatalf("key %d: segment holds %d values, the final store %d", i, len(got), len(vs))
		}
		for j := range vs {
			if got[j] != vs[j] {
				t.Fatalf("key %d value %d: segment %v, final store %v", i, j, got[j], vs[j])
			}
		}
		if v, ok := fs.Get(k); len(vs) > 0 && (!ok || v != vs[0]) {
			t.Fatalf("key %d: segment Get %v %v, final store %v", i, v, ok, vs[0])
		}
	}
}

// roundAlloc returns the bytes the third identical round of a write-heavy
// workload allocates on a runtime with the given backend: SetInput and two
// warm-up rounds fill the arena, so the measured round is steady state.
func roundAlloc(t *testing.T, backend dds.Publisher) uint64 {
	t.Helper()
	const n = 40000
	rt := New(Config{P: 8, S: 1 << 14, Seed: 11, Workers: 2, Backend: backend})
	defer rt.Close()
	input := make([]dds.KV, n)
	for i := range input {
		input[i] = pair(int64(i), int64(i))
	}
	rt.SetInput(input)
	round := func() {
		err := rt.Round("copy", func(c *Ctx) error {
			for x := c.Machine; x < n; x += c.P {
				c.Write(key(int64(x), 0), val(int64(x), 1))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	// Join the write-behind publishes around the measured round, so the
	// window holds exactly one round and its own segment encode.
	var before, after runtime.MemStats
	if err := rt.pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	round()
	if err := rt.pub.Barrier(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFileRoundsRecycleThroughArena pins that a file-backed round retires its
// store into the arena exactly as a mem-backed one does: in steady state it
// allocates what the mem round does plus its segment encode — never a fresh
// generation of slot tables.
func TestFileRoundsRecycleThroughArena(t *testing.T) {
	mem := roundAlloc(t, nil)
	file := roundAlloc(t, dds.NewFilePublisher(t.TempDir()))
	t.Logf("steady-state round allocates %d bytes on mem, %d on file", mem, file)
	// About 5 000 pairs per shard take a 16 Ki-slot table of 20-byte slots:
	// a fresh generation's tables are over 2.5 MiB on 8 shards. The segment
	// encode (fixed-width sections) allocates about 1.3 MB.
	const margin = 2 << 20
	if file > mem+margin {
		t.Fatalf("file-backed round allocates %d bytes, mem %d: more than the %d-byte margin, so the retired store did not recycle",
			file, mem, margin)
	}
}

// TestWarmRoundsRetainOneGeneration pins the freeze's memory footprint:
// after warm rounds of 2^18 written pairs, the heap a collection leaves
// holds one generation of 20-byte-slot tables — D_{i-1} retires before D_i
// freezes, so D_i is built in its tables and the arena keeps no spare —
// plus the writers' warm buffers (a 24-byte entry and a 4-byte shard id per
// pair), and nothing that grows with the pairs beyond that: no freeze
// scratch, no second generation, no fatter slot or entry.
func TestWarmRoundsRetainOneGeneration(t *testing.T) {
	// Every round writes the same pairs, and P = 12 keeps every shard's 2n
	// well inside one power-of-two table size, so every generation's tables
	// are the size tableBytes computes from the last store. Stores that
	// shrink between rounds hold recycled tables larger than their own;
	// internal/dds' TestShrinkingFreezesRecycleTables covers them.
	const n, p = 1 << 18, 12
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt := New(Config{P: p, S: 1 << 16, Seed: 11, Workers: 2})
	defer rt.Close()
	input := make([]dds.KV, n)
	for i := range input {
		input[i] = pair(int64(i), int64(i))
	}
	rt.SetInput(input)
	input = nil
	for r := 0; r < 3; r++ {
		err := rt.Round("copy", func(c *Ctx) error {
			c.WriteMany(stripe(c, n, 0))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	tables := tableBytes(rt.Store().ShardSizes())
	bound := tables + n*(24+4) + 1<<20
	t.Logf("retained %d bytes; bound %d (tables %d per generation)", retained, bound, tables)
	if retained > bound {
		t.Fatalf("warm rounds retain %d bytes, more than one generation of tables, the writers and 1 MiB (%d)",
			retained, bound)
	}
}

// stripe returns the pairs key(x, b) -> val(x, 1) for the x < n that c's
// machine owns in a stripe over the machines, for one WriteMany: a batch
// reserves its writer's room at once, so the writer's capacity is its
// length.
func stripe(c *Ctx, n int, b int64) []dds.KV {
	kvs := make([]dds.KV, 0, (n-c.Machine+c.P-1)/c.P)
	for x := c.Machine; x < n; x += c.P {
		kvs = append(kvs, dds.KV{Key: key(int64(x), b), Value: val(int64(x), 1)})
	}
	return kvs
}

// tableBytes is the heap one store generation's slot tables take: per shard,
// the power-of-two table at most half full, 20-byte slots plus the
// occupancy bitmap.
func tableBytes(shardSizes []int) int64 {
	total := int64(0)
	for _, size := range shardSizes {
		slots := int64(1)
		for slots < 2*int64(size) {
			slots <<= 1
		}
		total += slots*20 + slots/8
	}
	return total
}

// TestCloseSurfacesFinalPublishError pins the durability regression guard:
// when the final round's write-behind publish dies after Round already
// returned, the error must surface from Close — under synchronous
// publishing it would have surfaced from that Round.
func TestCloseSurfacesFinalPublishError(t *testing.T) {
	pub := dds.NewFilePublisher(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	pub.SetContext(ctx)
	cancel() // every write-behind publish aborts before becoming durable
	rt := New(Config{P: 8, S: 200, Seed: 4, Backend: pub})
	rt.SetInput([]dds.KV{pair(0, 1)}) // starts the doomed publish; no Round runs to report it
	if err := rt.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v, want context.Canceled", err)
	}
}

// TestRoundStatsPublishPhase checks the publish phase accounting: the mem
// backend reports zero publish time, and file-backed rounds report the
// barrier join plus publisher handoff without losing freeze accounting.
func TestRoundStatsPublishPhase(t *testing.T) {
	pub := dds.NewFilePublisher("")
	rt := New(Config{P: 8, S: 200, Seed: 9, Backend: pub})
	defer rt.Close()
	chase(t, rt, 512)
	for i, st := range rt.Stats() {
		if st.Publish < 0 {
			t.Fatalf("round %d: negative publish time", i)
		}
		if st.Freeze <= 0 {
			t.Fatalf("round %d: freeze phase not recorded", i)
		}
	}

	memRT := New(Config{P: 8, S: 200, Seed: 9})
	defer memRT.Close()
	chase(t, memRT, 512)
	for i, st := range memRT.Stats() {
		// The mem publisher's barrier and publish are no-ops; the recorded
		// phase is just two clock reads and must stay negligible.
		if st.Publish > time.Millisecond {
			t.Fatalf("round %d: mem backend reported publish time %v", i, st.Publish)
		}
	}
}
