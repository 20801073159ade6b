package ampc

import (
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
	if rt.Rounds() != 1 {
		t.Fatalf("publish should count one round, got %d", rt.Rounds())
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

func TestReadStaticIndexed(t *testing.T) {
	rt := New(cfg(1, 100))
	k := key(3, 0)
	if err := rt.AddStatic("publish", []dds.KV{
		{Key: k, Value: val(1, 0)}, {Key: k, Value: val(2, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	err := rt.Round("read", func(ctx *Ctx) error {
		v0, ok0 := ctx.ReadStaticIndexed(k, 0)
		v1, ok1 := ctx.ReadStaticIndexed(k, 1)
		_, ok2 := ctx.ReadStaticIndexed(k, 2)
		if !ok0 || !ok1 || ok2 || v0.A != 1 || v1.A != 2 {
			t.Errorf("indexed static reads wrong: %v %v", v0, v1)
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
