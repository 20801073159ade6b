package ampc

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ampc/internal/dds"
	"ampc/internal/rpc"
)

func TestAddStaticReadable(t *testing.T) {
	rt := New(cfg(4, 100))
	pairs := []dds.KV{pair(0, 10), pair(1, 11), pair(2, 12)}
	if err := rt.AddStatic("publish", pairs); err != nil {
		t.Fatal(err)
	}
	if len(rt.Stats()) != 1 {
		t.Fatalf("publish should count one round, got %d", len(rt.Stats()))
	}
	err := rt.Round("read", func(ctx *Ctx) error {
		for i := int64(0); i < 3; i++ {
			v, ok := ctx.ReadStatic(key(i, 0))
			if !ok || v.A != 10+i {
				t.Errorf("machine %d: static read %d = %v ok=%v", ctx.Machine, i, v, ok)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaticSurvivesRounds(t *testing.T) {
	rt := New(cfg(2, 100))
	if err := rt.AddStatic("publish", []dds.KV{pair(7, 77)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := rt.Round("spin", func(ctx *Ctx) error {
			if v, ok := ctx.ReadStatic(key(7, 0)); !ok || v.A != 77 {
				t.Errorf("round %d: static data lost", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStaticAccumulates(t *testing.T) {
	rt := New(cfg(2, 100))
	if err := rt.AddStatic("a", []dds.KV{pair(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddStatic("b", []dds.KV{pair(2, 2)}); err != nil {
		t.Fatal(err)
	}
	err := rt.Round("read", func(ctx *Ctx) error {
		if _, ok := ctx.ReadStatic(key(1, 0)); !ok {
			t.Error("first batch lost")
		}
		if _, ok := ctx.ReadStatic(key(2, 0)); !ok {
			t.Error("second batch missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaticChargesBudget(t *testing.T) {
	rt := New(Config{P: 1, S: 2, BudgetFactor: 1, Seed: 3})
	if err := rt.AddStatic("publish", []dds.KV{pair(0, 1), pair(1, 2)}); err != nil {
		t.Fatal(err)
	}
	_ = rt.Round("read", func(ctx *Ctx) error {
		ctx.ReadStatic(key(0, 0))
		ctx.ReadStatic(key(0, 0)) // repeat, free
		if ctx.Queries() != 1 {
			t.Errorf("Queries = %d, want 1", ctx.Queries())
		}
		ctx.ReadStatic(key(1, 0))
		ctx.ReadStatic(key(5, 0)) // over budget now
		if ctx.Err() == nil {
			t.Error("static reads did not hit budget")
		}
		return nil
	})
}

// TestPointReadsAllReachStore pins the read counter on every backend: with
// only a per-machine memo, each charged point read — Read, ReadMany or
// ReadStatic — probes a store, so a round of point reads has CacheMisses
// equal to its queries, repeats excluded.
func TestPointReadsAllReachStore(t *testing.T) {
	srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	backends := map[string]func() dds.Publisher{
		"mem":  func() dds.Publisher { return nil },
		"file": func() dds.Publisher { return dds.NewFilePublisher(t.TempDir()) },
		"rpc": func() dds.Publisher {
			return rpc.NewPublisher(rpc.Config{Servers: []string{srv.Addr()}})
		},
	}
	var pairs []dds.KV
	for i := int64(0); i < 16; i++ {
		pairs = append(pairs, pair(i, i))
	}
	for name, pub := range backends {
		rt := New(Config{P: 8, S: 100, Seed: 3, Workers: 2, Backend: pub()})
		if err := rt.AddStatic("publish", pairs); err != nil {
			t.Fatal(err)
		}
		rt.SetInput(pairs)
		keys := make([]dds.Key, 8)
		for i := range keys {
			keys[i] = key(int64(8+i), 0)
		}
		err := rt.Round("read", func(ctx *Ctx) error {
			for rep := 0; rep < 2; rep++ {
				for i := int64(0); i < 16; i++ {
					ctx.ReadStatic(key(i, 0))
				}
				for i := int64(0); i < 8; i++ {
					ctx.Read(key(i, 0))
				}
				ctx.ReadMany(keys, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()[len(rt.Stats())-1]
		if st.Queries != 8*32 || st.CacheMisses != st.Queries {
			t.Errorf("%s: Queries = %d (want %d), CacheMisses = %d (want Queries)",
				name, st.Queries, 8*32, st.CacheMisses)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaticReadsInShardLoad checks that static reads count in the Lemma
// 2.1 ledger of the round that makes them: eight machines reading one static
// key put a load of 8 on its shard every round, not a load accumulating
// across rounds.
func TestStaticReadsInShardLoad(t *testing.T) {
	rt := New(cfg(8, 100))
	if err := rt.AddStatic("publish", []dds.KV{pair(0, 1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := rt.Round("read", func(ctx *Ctx) error {
			ctx.ReadStatic(key(0, 0))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Stats()[len(rt.Stats())-1].MaxShardLoad; got != 8 {
			t.Errorf("round %d: MaxShardLoad = %d, want 8", i, got)
		}
	}
}

func TestStaticAndDynamicKeysDistinct(t *testing.T) {
	// The same key may exist in both stores with different values; caching
	// must not cross-contaminate.
	rt := New(cfg(1, 100))
	if err := rt.AddStatic("publish", []dds.KV{pair(0, 111)}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Round("write-dyn", func(ctx *Ctx) error {
		ctx.Write(key(0, 0), val(222, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := rt.Round("read-both", func(ctx *Ctx) error {
		sv, _ := ctx.ReadStatic(key(0, 0))
		dv, _ := ctx.Read(key(0, 0))
		if sv.A != 111 || dv.A != 222 {
			t.Errorf("static=%v dynamic=%v", sv, dv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadStaticBeforeAddStatic(t *testing.T) {
	rt := New(cfg(1, 100))
	err := rt.Round("read", func(ctx *Ctx) error {
		if _, ok := ctx.ReadStatic(key(0, 0)); ok {
			t.Error("read from absent static store succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStaticStoreMatchesRebuild holds the one-freeze static publish to the
// rebuild it replaced: AddStatic used to keep every call's pairs and
// rebuild the static store with dds.NewStore over all of them. One to four
// calls, with keys repeated within and across calls, under several worker
// counts and injected machine failures, must leave a static store whose
// segment bytes equal that rebuild's, and whose range reads list a key's
// values across calls in call order.
func TestStaticStoreMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for calls := 1; calls <= 4; calls++ {
		for _, workers := range []int{1, 2, 8} {
			rt := New(Config{P: 16, S: 1 << 12, Seed: uint64(10*calls + workers), Workers: workers, FaultProb: 0.2})
			var all []dds.KV
			for c := 0; c < calls; c++ {
				pairs := make([]dds.KV, 200+r.Intn(2000))
				for i := range pairs {
					pairs[i] = dds.KV{Key: key(int64(r.Intn(600)), int64(r.Intn(2))), Value: val(int64(c), int64(i))}
				}
				if err := rt.AddStatic("publish", pairs); err != nil {
					t.Fatal(err)
				}
				all = append(all, pairs...)
			}
			want := dds.AppendSegment(nil, dds.NewStore(all, rt.cfg.P, rt.staticSalt))
			if got := dds.AppendSegment(nil, rt.static); !bytes.Equal(got, want) {
				t.Fatalf("calls=%d workers=%d: static store bytes differ from the rebuild over all calls", calls, workers)
			}

			ref := map[dds.Key][]dds.Value{}
			for _, kv := range all {
				ref[kv.Key] = append(ref[kv.Key], kv.Value)
			}
			for k, vs := range ref {
				got := rt.static.GetRange(k, 0, len(vs)+1, nil)
				if !slices.Equal(got, vs) {
					t.Fatalf("calls=%d workers=%d: static values of %v = %v, want %v", calls, workers, k, got, vs)
				}
			}
			rt.Close()
		}
	}
}

// TestStaticRoundMatchesAddStatic: a StaticRound whose machines read D_{i-1}
// and write what they read, block by block, leaves the static store
// AddStatic of the same list leaves, byte for byte, with the same round
// accounting, and an empty D_i.
func TestStaticRoundMatchesAddStatic(t *testing.T) {
	const n = 3000
	input := make([]dds.KV, n)
	for i := range input {
		input[i] = pair(int64(i), int64(10*i))
	}
	for _, workers := range []int{1, 3} {
		c := Config{P: 16, S: 1 << 12, Seed: 52, Workers: workers}
		listed, emitted := New(c), New(c)
		listed.SetInput(input)
		emitted.SetInput(input)
		if err := listed.AddStatic("publish", input); err != nil {
			t.Fatal(err)
		}
		err := emitted.StaticRound("publish", func(ctx *Ctx) error {
			lo, hi := BlockRange(ctx.Machine, n, ctx.P)
			ctx.GrowWrites(hi - lo)
			for i := lo; i < hi; i++ {
				v, ok := ctx.Read(key(int64(i), 0))
				if !ok {
					t.Errorf("machine %d: D_{i-1} misses key %d", ctx.Machine, i)
				}
				ctx.Write(key(int64(i), 0), v)
			}
			return ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dds.AppendSegment(nil, emitted.static), dds.AppendSegment(nil, listed.static)) {
			t.Fatalf("workers=%d: StaticRound's static store differs from AddStatic's", workers)
		}
		a, b := listed.Stats()[0], emitted.Stats()[0]
		if a.Writes != b.Writes || a.MaxMachineWrites != b.MaxMachineWrites || a.Pairs != b.Pairs || b.Pairs != n {
			t.Fatalf("workers=%d: StaticRound writes %d (max %d, pairs %d), AddStatic %d (max %d, pairs %d)",
				workers, b.Writes, b.MaxMachineWrites, b.Pairs, a.Writes, a.MaxMachineWrites, a.Pairs)
		}
		if l := emitted.Store().Len(); l != 0 {
			t.Fatalf("workers=%d: StaticRound left %d pairs in D_i", workers, l)
		}
		listed.Close()
		emitted.Close()
	}
}

// TestStaticPublishRetainsOneGeneration pins the static publish's memory:
// after AddStatic of 2^18 pairs and one round writing as many, the heap a
// collection leaves holds one generation of static tables, at most two
// generations of round tables, the writers' warm buffers and 1 MiB — no
// copy of the published pairs and no second static generation.
func TestStaticPublishRetainsOneGeneration(t *testing.T) {
	const n, p = 1 << 18, 12
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt := New(Config{P: p, S: 1 << 16, Seed: 11, Workers: 2})
	defer rt.Close()
	pairs := make([]dds.KV, n)
	for i := range pairs {
		pairs[i] = pair(int64(i), int64(i))
	}
	if err := rt.AddStatic("publish", pairs); err != nil {
		t.Fatal(err)
	}
	pairs = nil
	err := rt.Round("copy", func(c *Ctx) error {
		c.GrowWrites((n - c.Machine + c.P - 1) / c.P)
		for x := c.Machine; x < n; x += c.P {
			c.Write(key(int64(x), 1), val(int64(x), 1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	static := tableBytes(rt.static.ShardSizes())
	round := tableBytes(rt.Store().ShardSizes())
	bound := static + 2*round + n*(24+4) + 1<<20
	t.Logf("retained %d bytes; bound %d (static tables %d, round tables %d per generation)", retained, bound, static, round)
	if retained > bound {
		t.Fatalf("static publish retains %d bytes, more than one static generation, two round generations, the writers and 1 MiB (%d)",
			retained, bound)
	}
}

// TestStaticReadContract pins what the static round publishes on every
// backend: its pairs are served by ReadStatic only, the D_i it publishes is
// empty (the file backend's segment for it holds no pair, the rpc fleet
// serves an empty generation), and its RoundStats still report the pairs
// written.
func TestStaticReadContract(t *testing.T) {
	fleet, err := rpc.StartFleet(make([]rpc.ServerConfig, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	var pairs []dds.KV
	for i := int64(0); i < 32; i++ {
		pairs = append(pairs, pair(i, 100+i))
	}
	for _, name := range []string{"mem", "file", "rpc"} {
		var pub dds.Publisher
		dir := t.TempDir()
		switch name {
		case "file":
			pub = dds.NewFilePublisher(dir)
		case "rpc":
			pub = rpc.NewPublisher(rpc.Config{Servers: fleet.Addrs(), Replication: 2})
		}
		rt := New(Config{P: 8, S: 100, Seed: 5, Workers: 2, Backend: pub})
		if err := rt.AddStatic("publish", pairs); err != nil {
			t.Fatal(err)
		}
		if st := rt.Stats()[0]; st.Pairs != len(pairs) || st.Writes != int64(len(pairs)) {
			t.Errorf("%s: static round reports Pairs %d, Writes %d; want %d written", name, st.Pairs, st.Writes, len(pairs))
		}
		if name == "file" {
			if err := pub.Barrier(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
			if len(segs) != 1 {
				t.Fatalf("file: %d segments after the static round, want 1: %v", len(segs), segs)
			}
			fs, err := dds.OpenSegment(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if fs.Len() != 0 {
				t.Errorf("file: the static round's segment holds %d pairs, want 0", fs.Len())
			}
			fs.Close()
		}
		err := rt.Round("read", func(ctx *Ctx) error {
			if ctx.Machine == 0 && ctx.reads.Len() != 0 {
				t.Errorf("%s: the store the static round published holds %d pairs, want 0", name, ctx.reads.Len())
			}
			for _, kv := range pairs {
				if v, ok := ctx.ReadStatic(kv.Key); !ok || v != kv.Value {
					t.Errorf("%s: ReadStatic(%v) = %v ok=%v, want %v", name, kv.Key, v, ok, kv.Value)
				}
				if v, ok := ctx.Read(kv.Key); ok {
					t.Errorf("%s: Read(%v) of a static key hit with %v; static pairs are served by ReadStatic only", name, kv.Key, v)
				}
			}
			return ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		if name == "rpc" && rt.Stats()[1].RPCFrames == 0 {
			t.Errorf("rpc: the read round sent no frames; its reads never reached the fleet")
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInputFreezeReported: SetInput and SetInputStream freeze D0 outside
// every round, so no RoundStats carries their fresh tables; InputFreeze
// sums them.
func TestInputFreezeReported(t *testing.T) {
	rt := New(Config{P: 8, S: 1 << 12, Seed: 3, Workers: 2})
	defer rt.Close()
	pairs := make([]dds.KV, 5000)
	for i := range pairs {
		pairs[i] = pair(int64(i), int64(i))
	}
	rt.SetInput(pairs)
	first := rt.InputFreeze().FreshTableBytes
	if first < int64(20*len(pairs)) {
		t.Fatalf("SetInput of %d pairs reports %d fresh table bytes, want at least %d", len(pairs), first, 20*len(pairs))
	}
	// Twice the pairs need tables larger than the retired ones.
	rt.SetInputStream(func(writer func(int) *dds.Writer) {
		w := writer(0)
		for i := 0; i < 2*len(pairs); i++ {
			w.Write(key(int64(i), 1), val(int64(i), 0))
		}
	})
	if got := rt.InputFreeze().FreshTableBytes; got <= first {
		t.Fatalf("SetInputStream added no fresh table bytes: %d after %d", got, first)
	}
	if len(rt.Stats()) != 0 {
		t.Fatalf("input freezes counted %d rounds", len(rt.Stats()))
	}
}
