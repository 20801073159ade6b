package rpc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampc/internal/dds"
)

// TestGetManyDupAndAbsentBatch is the batched-read equivalence check over
// the wire: a dup-heavy batch with interleaved absent keys must answer
// exactly like scalar Get, and the per-key load ledger must not shrink —
// coalescing into frames saves round trips, never accounting.
func TestGetManyDupAndAbsentBatch(t *testing.T) {
	_, addrs := startFleet(t, 3, ServerConfig{})
	pairs := testPairs(600)
	ref := reference(pairs)
	_, b := publish(t, Config{Servers: addrs, Replication: 2}, dds.NewStore(pairs, 8, 0x5eed))

	var keys []dds.Key
	hot := dds.Key{Tag: pairs[0].Key.Tag, A: pairs[0].Key.A, B: pairs[0].Key.B}
	for i := 0; i < 100; i++ {
		keys = append(keys, hot) // dup-heavy: 100 copies of one present key
	}
	for k := range ref {
		keys = append(keys, k)
		keys = append(keys, dds.Key{Tag: 99, A: k.A, B: k.B}) // absent twin
	}
	vals := make([]dds.Value, len(keys))
	oks := make([]bool, len(keys))
	before := sumLoads(b)
	b.GetMany(keys, vals, oks)
	for i, k := range keys {
		want, present := ref[k]
		if oks[i] != present {
			t.Fatalf("key %d %+v: ok=%v, want %v", i, k, oks[i], present)
		}
		if present && vals[i] != want[0] {
			t.Fatalf("key %d %+v: got %+v, want %+v", i, k, vals[i], want[0])
		}
	}
	// Every arriving key charges its shard once, duplicates included: the
	// model's contention ledger must not see the coalescing.
	if got := sumLoads(b) - before; got != int64(len(keys)) {
		t.Fatalf("batch of %d keys accounted %d shard loads", len(keys), got)
	}
	if err := b.ReadErr(); err != nil {
		t.Fatalf("reads latched %v", err)
	}
}

// TestDuplicateKeysShareOneFrame: a batch that is 100 copies of one key
// crosses the wire as one request frame, and concurrent scalar Gets of one
// key stay bounded by the caller count rather than multiplying by retries.
func TestDuplicateKeysShareOneFrame(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{})
	pairs := testPairs(100)
	_, b := publish(t, Config{Servers: addrs}, dds.NewStore(pairs, 4, 0x5eed))
	fr := b.(interface{ ReadFrames() int64 })

	hot := pairs[0].Key
	keys := make([]dds.Key, 100)
	for i := range keys {
		keys[i] = hot
	}
	vals := make([]dds.Value, len(keys))
	oks := make([]bool, len(keys))
	base := fr.ReadFrames()
	b.GetMany(keys, vals, oks)
	if got := fr.ReadFrames() - base; got != 1 {
		t.Fatalf("100-duplicate batch used %d frames, want 1", got)
	}
	for i := range keys {
		if !oks[i] || vals[i] != pairs[0].Value {
			t.Fatalf("dup %d: got %+v %v", i, vals[i], oks[i])
		}
	}

	// Concurrent scalar readers of the same key: correctness under -race,
	// and no more frames than readers (coalescing can only reduce them).
	const readers = 32
	base = fr.ReadFrames()
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok := b.Get(hot)
			if !ok || v != pairs[0].Value {
				errs <- "bad concurrent read"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := fr.ReadFrames() - base; got > readers {
		t.Fatalf("%d concurrent Gets used %d frames", readers, got)
	}
}

// concurrentReads runs one reader per key slice at once — even readers with
// a single GetMany, odd ones with scalar Gets, one adaptive step per key —
// and checks every answer against the oracle.
func concurrentReads(t *testing.T, b dds.StoreBackend, ref map[dds.Key][]dds.Value, slices [][]dds.Key) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, len(slices))
	for r, keys := range slices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]dds.Value, len(keys))
			oks := make([]bool, len(keys))
			if r%2 == 0 {
				b.GetMany(keys, vals, oks)
			} else {
				for i, k := range keys {
					vals[i], oks[i] = b.Get(k)
				}
			}
			for i, k := range keys {
				if !oks[i] || vals[i] != ref[k][0] {
					errs <- fmt.Sprintf("reader %d key %+v: got %+v %v, want %+v", r, k, vals[i], oks[i], ref[k][0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// splitKeys deals the oracle's keys (optionally only those keep accepts)
// into n disjoint slices of at most per keys each.
func splitKeys(ref map[dds.Key][]dds.Value, n, per int, keep func(dds.Key) bool) [][]dds.Key {
	out := make([][]dds.Key, n)
	i := 0
	for k := range ref {
		if keep != nil && !keep(k) {
			continue
		}
		if len(out[i%n]) < per {
			out[i%n] = append(out[i%n], k)
		}
		i++
	}
	return out
}

// TestCoalescedFrames pins request coalescing: while one getBatch frame is
// held at a slow server, every caller that arrives queues and rides the next
// frame with the others. 64 concurrent readers — 32 single GetMany batches
// and 32 chains of 4 scalar Gets, 160 requests in all — measure 8 frames
// (about two per adaptive step: the callers woken by one frame straddle the
// sender's next collection); the bound of 16 is twice that, while one frame
// per request would be 160. The shard-load ledger still charges every
// key: coalescing saves frames, never accounting.
func TestCoalescedFrames(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{FaultLatency: 20 * time.Millisecond})
	pairs := testPairs(2000)
	ref := reference(pairs)
	_, b := publish(t, Config{Servers: addrs}, dds.NewStore(pairs, 4, 0x5eed))
	fr := b.(interface{ ReadFrames() int64 })
	slices := splitKeys(ref, 64, 4, nil)
	total := 0
	for _, s := range slices {
		total += len(s)
	}
	frames0, loads0 := fr.ReadFrames(), sumLoads(b)
	concurrentReads(t, b, ref, slices)
	got := fr.ReadFrames() - frames0
	t.Logf("64 concurrent readers: %d frames", got)
	if got > 16 {
		t.Fatalf("64 concurrent readers used %d frames, want <= 16", got)
	}
	if got := sumLoads(b) - loads0; got != int64(total) {
		t.Fatalf("%d reads accounted %d shard loads", total, got)
	}
	if err := b.ReadErr(); err != nil {
		t.Fatalf("reads latched %v", err)
	}
}

// TestCoalescedFrameDropFailsOver: the primary server drops connections at
// random, so whole coalesced frames fail at the transport. Every member of
// a dropped frame must fail over to the replica on its own and read the
// right value, with no failure latched.
func TestCoalescedFrameDropFailsOver(t *testing.T) {
	f, err := StartFleet([]ServerConfig{
		{FaultDrop: 0.5, FaultSeed: 3, FaultLatency: 5 * time.Millisecond},
		{FaultLatency: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pairs := testPairs(2000)
	ref := reference(pairs)
	p, b := publish(t, Config{Servers: f.Addrs(), Replication: 2, Timeout: time.Second, DownCooldown: time.Millisecond},
		dds.NewStore(pairs, 8, 0x5eed))
	downs0 := p.c.servers[0].downs.Load()
	concurrentReads(t, b, ref, splitKeys(ref, 64, 8, nil))
	if err := b.ReadErr(); err != nil {
		t.Fatalf("failover latched %v", err)
	}
	if p.c.servers[0].downs.Load() == downs0 {
		t.Fatal("no read frame was dropped; the test exercised nothing")
	}
}

// TestCoalescedFramePausedPrimary: a paused primary holds a coalesced frame
// until the timeout. The callers queued behind it must not each wait out a
// timeout of their own — the whole batch fails over to the replica in about
// one (two on a pooled connection, which is retried once on a fresh dial),
// where 32 sequential timeouts would take 3.2s.
func TestCoalescedFramePausedPrimary(t *testing.T) {
	fleet, addrs := startFleet(t, 2, ServerConfig{})
	pairs := testPairs(2000)
	ref := reference(pairs)
	const timeout = 100 * time.Millisecond
	const shards, salt = 8, 0x5eed
	p, b := publish(t, Config{Servers: addrs, Replication: 2, Timeout: timeout}, dds.NewStore(pairs, shards, salt))
	onPrimary := func(k dds.Key) bool {
		return p.c.replica(dds.ShardOf(k, salt, shards), shards, 0) == p.c.servers[0]
	}
	slices := splitKeys(ref, 32, 4, onPrimary)
	fleet[0].Pause()
	start := time.Now()
	concurrentReads(t, b, ref, slices)
	if took := time.Since(start); took > 6*timeout {
		t.Fatalf("32 readers behind a paused primary took %v, want about one timeout (%v)", took, timeout)
	}
	if err := b.ReadErr(); err != nil {
		t.Fatalf("failover latched %v", err)
	}
}

// TestCancelledReadReturnsPromptly: a read blocked on a paused server
// returns as soon as the publisher's context is cancelled, not after the
// request timeout, latching context.Canceled and marking no server down;
// later reads fail at once.
func TestCancelledReadReturnsPromptly(t *testing.T) {
	fleet, addrs := startFleet(t, 1, ServerConfig{})
	pairs := testPairs(2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPublisher(Config{Servers: addrs, Timeout: 30 * time.Second})
	t.Cleanup(func() { p.Close() })
	p.SetContext(ctx)
	b, err := p.Publish(1, dds.NewStore(pairs, 8, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	keys := make([]dds.Key, 64)
	for i := range keys {
		keys[i] = pairs[i].Key
	}
	vals, oks := make([]dds.Value, len(keys)), make([]bool, len(keys))
	fleet[0].Pause()
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	b.GetMany(keys, vals, oks)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cancelled read took %v, want about the 100ms until cancel", took)
	}
	if err := b.ReadErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("latched %v, want context.Canceled", err)
	}
	start = time.Now()
	if n := b.Count(keys[0]); n != 0 || time.Since(start) > time.Second {
		t.Fatalf("a read after cancellation answered %d after %v", n, time.Since(start))
	}
	if d := p.c.servers[0].downs.Load(); d != 0 {
		t.Fatalf("cancellation marked the paused server down %d times", d)
	}
}

// TestDownCooldownDefault pins the health mark-down cooldown option: the
// zero value keeps the long-standing 250ms default, an explicit setting
// passes through untouched.
func TestDownCooldownDefault(t *testing.T) {
	if got := (Config{}).withDefaults().DownCooldown; got != 250*time.Millisecond {
		t.Fatalf("default DownCooldown = %v, want 250ms", got)
	}
	if got := (Config{DownCooldown: 40 * time.Millisecond}).withDefaults().DownCooldown; got != 40*time.Millisecond {
		t.Fatalf("explicit DownCooldown = %v, want 40ms", got)
	}
}

// sumLoads totals the backend's per-shard query counters.
func sumLoads(b dds.StoreBackend) int64 {
	var n int64
	for _, l := range b.ShardLoads() {
		n += l
	}
	return n
}

// TestFreedGenerationNeverReadsNext frees each generation on the servers
// while reads of it are in flight, then publishes the next generation. Every
// answer for the freed generation must be its own value, or absent with a
// failure latched (its replicas all answered no-store), never a value of the
// next generation, which a server that reused a freed generation's memory
// for the next put would serve. Run it under -race.
func TestFreedGenerationNeverReadsNext(t *testing.T) {
	_, addrs := startFleet(t, 2, ServerConfig{})
	const pairs = 1 << 14
	gen := func(g int64) *dds.Store {
		kvs := make([]dds.KV, pairs)
		for i := range kvs {
			kvs[i] = dds.KV{Key: dds.Key{Tag: 1, A: int64(i)}, Value: dds.Value{A: int64(i), B: g}}
		}
		return dds.NewStore(kvs, 8, 0x5eed)
	}
	p := NewPublisher(Config{Servers: addrs, Replication: 2})
	t.Cleanup(func() { p.Close() })
	p.SetArena(dds.NewArena())
	publishGen := func(g int64) dds.StoreBackend {
		b, err := p.Publish(int(g), gen(g))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Barrier(); err != nil {
			t.Fatal(err)
		}
		return b
	}

	b := publishGen(1)
	const readers, batch = 4, 4096
	for g := int64(1); g < 5; g++ {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		errs := make(chan string, readers)
		var absent atomic.Int64
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				keys := make([]dds.Key, batch)
				vals, oks := make([]dds.Value, batch), make([]bool, batch)
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					for i := range keys {
						keys[i] = dds.Key{Tag: 1, A: int64((r*batch + round*readers*batch + i) % pairs)}
					}
					b.GetMany(keys, vals, oks)
					for i, k := range keys {
						switch {
						case !oks[i]:
							absent.Add(1)
						case vals[i] != (dds.Value{A: k.A, B: g}):
							errs <- fmt.Sprintf("key %d of generation %d read %+v", k.A, g, vals[i])
							return
						}
					}
				}
			}()
		}
		time.Sleep(10 * time.Millisecond)
		b.Close()
		next := publishGen(g + 1)
		time.Sleep(10 * time.Millisecond)
		close(stop)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if absent.Load() > 0 && b.ReadErr() == nil {
			t.Fatalf("generation %d answered %d reads absent without latching a failure", g, absent.Load())
		}
		b = next
	}
}

// TestSendersExitOnClose: the per-server senders that the first reads start
// exit once the publisher closes. Close waits for them, but a sender counts
// as done while it is still in its deferred frame, so the stacks are polled
// for up to 2s after Close instead of counted once.
func TestSendersExitOnClose(t *testing.T) {
	_, addrs := startFleet(t, 3, ServerConfig{})
	pairs := testPairs(300)
	p := NewPublisher(Config{Servers: addrs, Replication: 2})
	b, err := p.Publish(1, dds.NewStore(pairs, 8, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	stacks := func() string {
		buf := make([]byte, 1<<20)
		return string(buf[:runtime.Stack(buf, true)])
	}
	senders := func() int { return strings.Count(stacks(), "rpc.(*server).sendLoop") }
	keys := make([]dds.Key, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	b.GetMany(keys, make([]dds.Value, len(keys)), make([]bool, len(keys)))
	if n := senders(); n != 3 {
		t.Fatalf("%d senders after reads from 3 servers, want 3", n)
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for senders() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := senders(); n != 0 {
		t.Fatalf("%d senders still running 2s after Close\n%s", n, stacks())
	}
}

// TestCloseFailsBlockedRead: Close returns at once while the sender is
// blocked in an exchange with a stalled server on a context that is never
// cancelled, and the blocked read fails instead of waiting out the timeout.
func TestCloseFailsBlockedRead(t *testing.T) {
	fleet, addrs := startFleet(t, 1, ServerConfig{})
	pairs := testPairs(300)
	p := NewPublisher(Config{Servers: addrs, Timeout: 30 * time.Second})
	b, err := p.Publish(1, dds.NewStore(pairs, 8, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	fleet[0].Pause()
	t.Cleanup(fleet[0].Resume)
	read := make(chan bool)
	go func() {
		_, ok := b.Get(pairs[0].Key)
		read <- ok
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	p.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a read blocked on a stalled server", took)
	}
	select {
	case ok := <-read:
		if ok {
			t.Fatal("a read cut off by Close answered present")
		}
	case <-time.After(time.Second):
		t.Fatal("the blocked read still waits a second after Close")
	}
}
