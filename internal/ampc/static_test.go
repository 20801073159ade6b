package ampc

import (
	"testing"

	"ampc/internal/dds"
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
		ctx.ReadStatic(key(0, 0)) // cache hit, free
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

// TestStaticReadsCountedAsHitOrMiss pins the cache accounting identity on a
// static-only round: every charged point read is either a worker-cache hit
// or a store probe, so hits + misses equals the round's queries — with the
// cache on (machines sharing a worker hit each other's entries) and off.
func TestStaticReadsCountedAsHitOrMiss(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		rt := New(Config{P: 8, S: 100, Seed: 3, Workers: 2, NoWorkerCache: noCache})
		var pairs []dds.KV
		for i := int64(0); i < 16; i++ {
			pairs = append(pairs, pair(i, i))
		}
		if err := rt.AddStatic("publish", pairs); err != nil {
			t.Fatal(err)
		}
		err := rt.Round("read", func(ctx *Ctx) error {
			for i := int64(0); i < 16; i++ {
				ctx.ReadStatic(key(i, 0))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()[len(rt.Stats())-1]
		if st.Queries != 8*16 {
			t.Fatalf("noCache=%v: Queries = %d, want %d", noCache, st.Queries, 8*16)
		}
		if st.CacheMisses == 0 || st.CacheHits+st.CacheMisses != st.Queries {
			t.Errorf("noCache=%v: hits %d + misses %d != %d charged point reads",
				noCache, st.CacheHits, st.CacheMisses, st.Queries)
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
