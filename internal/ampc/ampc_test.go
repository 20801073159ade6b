package ampc

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ampc/internal/dds"
	"ampc/internal/rpc"
)

const tagTest = 1

func key(a, b int64) dds.Key   { return dds.Key{Tag: tagTest, A: a, B: b} }
func val(a, b int64) dds.Value { return dds.Value{A: a, B: b} }
func cfg(p, s int) Config      { return Config{P: p, S: s, Seed: 42} }
func pair(a, v int64) dds.KV   { return dds.KV{Key: key(a, 0), Value: val(v, 0)} }

func TestNewValidation(t *testing.T) {
	for _, c := range []Config{{P: 0, S: 1}, {P: 1, S: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestRoundReadWrite(t *testing.T) {
	rt := New(cfg(4, 100))
	rt.SetInput([]dds.KV{pair(0, 10), pair(1, 11), pair(2, 12), pair(3, 13)})
	err := rt.Round("double", func(ctx *Ctx) error {
		v, ok := ctx.Read(key(int64(ctx.Machine), 0))
		if !ok {
			t.Errorf("machine %d: missing input", ctx.Machine)
			return nil
		}
		ctx.Write(key(int64(ctx.Machine), 0), val(v.A*2, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		v, ok := rt.Store().Get(key(int64(m), 0))
		if !ok || v.A != int64(10+m)*2 {
			t.Fatalf("machine %d output = %v ok=%v", m, v, ok)
		}
	}
	if rt.Rounds() != 1 {
		t.Fatalf("Rounds = %d", rt.Rounds())
	}
}

func TestAdaptivePointerChase(t *testing.T) {
	// Store a functional graph g(x) = x+1 mod n and chase k pointers in a
	// single round — the defining AMPC capability (see §2 of the paper).
	const n, k = 64, 20
	pairs := make([]dds.KV, n)
	for i := range pairs {
		pairs[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64((i+1)%n), 0)}
	}
	rt := New(cfg(1, 100))
	rt.SetInput(pairs)
	err := rt.Round("chase", func(ctx *Ctx) error {
		x := int64(0)
		for i := 0; i < k; i++ {
			v, ok := ctx.Read(key(x, 0))
			if !ok {
				t.Error("chase fell off the map")
				return nil
			}
			x = v.A
		}
		ctx.Write(key(1000, 0), val(x, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rt.Store().Get(key(1000, 0))
	if !ok || v.A != k%n {
		t.Fatalf("g^%d(0) = %v, want %d", k, v.A, k%n)
	}
}

func TestBudgetEnforcedOnReads(t *testing.T) {
	rt := New(Config{P: 1, S: 4, BudgetFactor: 1, Seed: 1})
	rt.SetInput([]dds.KV{pair(0, 1)})
	err := rt.Round("overspend", func(ctx *Ctx) error {
		for i := 0; i < 10; i++ {
			ctx.Read(key(int64(i), 0))
		}
		return nil
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetEnforcedOnWrites(t *testing.T) {
	rt := New(Config{P: 1, S: 4, BudgetFactor: 1, Seed: 1})
	err := rt.Round("overwrite", func(ctx *Ctx) error {
		for i := 0; i < 10; i++ {
			ctx.Write(key(int64(i), 0), val(0, 0))
		}
		return nil
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestCacheHitsAreFree(t *testing.T) {
	rt := New(Config{P: 1, S: 2, BudgetFactor: 1, Seed: 1})
	rt.SetInput([]dds.KV{pair(0, 7)})
	err := rt.Round("cached", func(ctx *Ctx) error {
		for i := 0; i < 100; i++ {
			if v, ok := ctx.Read(key(0, 0)); !ok || v.A != 7 {
				t.Error("cached read failed")
				return nil
			}
		}
		if ctx.Queries() != 1 {
			t.Errorf("Queries = %d, want 1", ctx.Queries())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats()[0].Queries; got != 1 {
		t.Fatalf("round queries = %d, want 1", got)
	}
}

// TestSameKeyChargedPerMachine pins the per-machine memo: machines sharing
// a lane do not share reads, so four machines reading one key are each
// charged once and its shard answers four queries.
func TestSameKeyChargedPerMachine(t *testing.T) {
	rt := New(Config{P: 4, S: 100, Seed: 1, Workers: 1})
	rt.SetInput([]dds.KV{pair(0, 7)})
	err := rt.Round("same", func(ctx *Ctx) error {
		for i := 0; i < 3; i++ {
			if v, ok := ctx.Read(key(0, 0)); !ok || v.A != 7 {
				t.Errorf("machine %d: read = %v ok=%v", ctx.Machine, v, ok)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()[0]
	if st.Queries != 4 || st.MaxMachineQueries != 1 || st.MaxShardLoad != 4 {
		t.Fatalf("Queries = %d MaxMachineQueries = %d MaxShardLoad = %d, want 4, 1, 4",
			st.Queries, st.MaxMachineQueries, st.MaxShardLoad)
	}
}

// TestCloseStopsGoroutines checks that no goroutine a runtime starts
// outlives Close: the worker pool of a mem runtime, and on a loopback rpc
// runtime the pool grown to P lanes plus the publisher's connections.
func TestCloseStopsGoroutines(t *testing.T) {
	srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, c := range map[string]Config{
		"mem": {P: 16, S: 100, Seed: 1, Workers: 4},
		"rpc": {P: 64, S: 100, Seed: 1, Workers: 2,
			Backend: rpc.NewPublisher(rpc.Config{Servers: []string{srv.Addr()}})},
	} {
		before := runtime.NumGoroutine()
		rt := New(c)
		rt.SetInput([]dds.KV{pair(0, 1), pair(1, 2)})
		for i := 0; i < 3; i++ {
			err := rt.Round("work", func(ctx *Ctx) error {
				v, _ := ctx.Read(key(int64(ctx.Machine%2), 0))
				ctx.Write(key(int64(ctx.Machine%2), 0), v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines 2s after Close, %d before New\n%s",
				name, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestCacheCoversAbsentKeys(t *testing.T) {
	rt := New(Config{P: 1, S: 2, BudgetFactor: 1, Seed: 1})
	err := rt.Round("absent", func(ctx *Ctx) error {
		for i := 0; i < 50; i++ {
			if _, ok := ctx.Read(key(9, 9)); ok {
				t.Error("absent key reported present")
			}
		}
		if ctx.Queries() != 1 {
			t.Errorf("Queries = %d, want 1", ctx.Queries())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadIndexedAndCount(t *testing.T) {
	rt := New(cfg(1, 100))
	k := key(5, 0)
	rt.SetInput([]dds.KV{{Key: k, Value: val(10, 0)}, {Key: k, Value: val(20, 0)}})
	err := rt.Round("dup", func(ctx *Ctx) error {
		if n := ctx.CountKey(k); n != 2 {
			t.Errorf("CountKey = %d", n)
		}
		v0, ok0 := ctx.ReadIndexed(k, 0)
		v1, ok1 := ctx.ReadIndexed(k, 1)
		_, ok2 := ctx.ReadIndexed(k, 2)
		if !ok0 || !ok1 || ok2 || v0.A != 10 || v1.A != 20 {
			t.Errorf("indexed reads wrong: %v %v", v0, v1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundsAreReadThenWrite(t *testing.T) {
	// A write in round i must not be visible to reads in round i, only i+1.
	rt := New(cfg(2, 100))
	err := rt.Round("write", func(ctx *Ctx) error {
		ctx.Write(key(int64(ctx.Machine), 0), val(int64(ctx.Machine), 0))
		if _, ok := ctx.Read(key(int64(ctx.Machine), 0)); ok {
			t.Error("same-round write visible to read")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Round("read", func(ctx *Ctx) error {
		if _, ok := ctx.Read(key(int64(ctx.Machine), 0)); !ok {
			t.Error("previous-round write invisible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMachineRNGDeterminism(t *testing.T) {
	draws := func() [][2]uint64 {
		rt := New(cfg(8, 100))
		var out [][2]uint64
		got := make([][2]uint64, 8)
		rt.Round("draw", func(ctx *Ctx) error {
			got[ctx.Machine] = [2]uint64{ctx.RNG.Uint64(), ctx.RNG.Uint64()}
			return nil
		})
		out = append(out, got...)
		return out
	}
	a, b := draws(), draws()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("machine %d drew %v then %v across identical runs", i, a[i], b[i])
		}
	}
}

func TestMachineRNGsDiffer(t *testing.T) {
	rt := New(cfg(4, 100))
	got := make([]uint64, 4)
	rt.Round("draw", func(ctx *Ctx) error {
		got[ctx.Machine] = ctx.RNG.Uint64()
		return nil
	})
	seen := map[uint64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("two machines drew identical first value %d", v)
		}
		seen[v] = true
	}
}

func TestFaultInjectionIsTransparent(t *testing.T) {
	run := func(fail bool) []int64 {
		rt := New(cfg(4, 1000))
		rt.SetInput([]dds.KV{pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 4)})
		if fail {
			rt.FailMachine(1, 2)
			rt.FailMachine(3, 1)
		}
		err := rt.Round("work", func(ctx *Ctx) error {
			v, _ := ctx.Read(key(int64(ctx.Machine), 0))
			r := int64(ctx.RNG.Intn(1000))
			ctx.Write(key(100+int64(ctx.Machine), 0), val(v.A*10+r, 0))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 4)
		for m := 0; m < 4; m++ {
			v, ok := rt.Store().Get(key(100+int64(m), 0))
			if !ok {
				t.Fatalf("machine %d output missing", m)
			}
			out[m] = v.A
		}
		return out
	}
	clean, faulty := run(false), run(true)
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("machine %d: clean=%d faulty=%d — failure changed output", i, clean[i], faulty[i])
		}
	}
}

func TestFaultInjectionNoDuplicateWrites(t *testing.T) {
	rt := New(cfg(2, 1000))
	rt.FailMachine(0, 3)
	err := rt.Round("write", func(ctx *Ctx) error {
		ctx.Write(key(int64(ctx.Machine), 0), val(1, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.Store().Count(key(0, 0)); n != 1 {
		t.Fatalf("failed machine produced %d copies, want 1", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := New(cfg(2, 100))
	rt.SetInput([]dds.KV{pair(0, 1), pair(1, 2)})
	err := rt.Round("r", func(ctx *Ctx) error {
		ctx.Read(key(int64(ctx.Machine), 0))
		if ctx.Machine == 0 {
			ctx.Read(key(1, 0)) // machine 0 reads one extra key
		}
		ctx.Write(key(int64(ctx.Machine), 1), val(0, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()[0]
	if st.Queries != 3 {
		t.Fatalf("Queries = %d, want 3", st.Queries)
	}
	if st.MaxMachineQueries != 2 {
		t.Fatalf("MaxMachineQueries = %d, want 2", st.MaxMachineQueries)
	}
	if st.Writes != 2 || st.MaxMachineWrites != 1 {
		t.Fatalf("Writes = %d MaxMachineWrites = %d", st.Writes, st.MaxMachineWrites)
	}
	if st.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", st.Pairs)
	}
	if rt.TotalQueries() != 3 {
		t.Fatalf("TotalQueries = %d", rt.TotalQueries())
	}
	if rt.MaxMachineQueries() != 2 {
		t.Fatalf("runtime MaxMachineQueries = %d", rt.MaxMachineQueries())
	}
}

func TestErrRemainingAfterBudget(t *testing.T) {
	rt := New(Config{P: 1, S: 1, BudgetFactor: 1, Seed: 1})
	_ = rt.Round("spend", func(ctx *Ctx) error {
		if ctx.Remaining() != 1 {
			t.Errorf("Remaining = %d, want 1", ctx.Remaining())
		}
		ctx.Read(key(0, 0))
		if ctx.Remaining() != 0 {
			t.Errorf("Remaining after spend = %d, want 0", ctx.Remaining())
		}
		ctx.Read(key(1, 0))
		if ctx.Err() == nil {
			t.Error("Err = nil after overspend")
		}
		return nil
	})
}

func TestMPCSimulation(t *testing.T) {
	// The paper notes MPC ⊆ AMPC: sending a message to machine x becomes a
	// write keyed by x, read back by machine x next round. Exercise that.
	const p = 8
	rt := New(cfg(p, 100))
	err := rt.Round("send", func(ctx *Ctx) error {
		dst := (ctx.Machine + 1) % p
		ctx.Write(dds.Key{Tag: 2, A: int64(dst), B: 0}, val(int64(ctx.Machine), 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Round("recv", func(ctx *Ctx) error {
		me := dds.Key{Tag: 2, A: int64(ctx.Machine), B: 0}
		v, ok := ctx.Read(me)
		want := int64((ctx.Machine + p - 1) % p)
		if !ok || v.A != want {
			t.Errorf("machine %d received %v ok=%v, want %d", ctx.Machine, v, ok, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeCoversAllItems(t *testing.T) {
	check := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%500 + 1
		p := int(pRaw)%32 + 1
		covered := 0
		prevHi := 0
		for m := 0; m < p; m++ {
			lo, hi := BlockRange(m, n, p)
			if lo != prevHi {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOwnerMatchesRange(t *testing.T) {
	check := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%300 + 1
		p := int(pRaw)%16 + 1
		for i := 0; i < n; i++ {
			m := BlockOwner(i, n, p)
			lo, hi := BlockRange(m, n, p)
			if i < lo || i >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeBalance(t *testing.T) {
	// No machine's share may exceed ceil(n/p).
	n, p := 103, 10
	for m := 0; m < p; m++ {
		lo, hi := BlockRange(m, n, p)
		if hi-lo > (n+p-1)/p {
			t.Fatalf("machine %d owns %d items, want <= %d", m, hi-lo, (n+p-1)/p)
		}
	}
}

func TestBlockRangeDegenerate(t *testing.T) {
	if lo, hi := BlockRange(0, 0, 4); lo != 0 || hi != 0 {
		t.Fatal("empty item set should give empty ranges")
	}
	if BlockOwner(0, 0, 4) != 0 {
		t.Fatal("owner of empty set should be 0")
	}
	// More machines than items: later machines get empty ranges.
	total := 0
	for m := 0; m < 10; m++ {
		lo, hi := BlockRange(m, 3, 10)
		total += hi - lo
	}
	if total != 3 {
		t.Fatalf("coverage = %d, want 3", total)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := New(Config{P: 3, S: 50, Seed: 9})
	if got := rt.Config(); got.P != 3 || got.S != 50 {
		t.Fatalf("Config = %+v", got)
	}
	if rt.MaxShardLoad() != 0 {
		t.Fatal("MaxShardLoad nonzero before any round")
	}
	rt.SetInput([]dds.KV{pair(0, 1)})
	err := rt.Round("read", func(ctx *Ctx) error {
		ctx.Read(key(0, 0))
		ctx.Write(key(1, 0), val(2, 0))
		if ctx.Writes() != 1 {
			t.Errorf("Writes = %d", ctx.Writes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.MaxShardLoad() == 0 {
		t.Fatal("MaxShardLoad zero after reads")
	}
}

func TestStaticStoreAccessor(t *testing.T) {
	rt := New(cfg(2, 100))
	if rt.StaticStore() != nil {
		t.Fatal("static store non-nil before AddStatic")
	}
	if err := rt.AddStatic("s", []dds.KV{pair(3, 33)}); err != nil {
		t.Fatal(err)
	}
	v, ok := rt.StaticStore().Get(key(3, 0))
	if !ok || v.A != 33 {
		t.Fatalf("master static read = %v ok=%v", v, ok)
	}
}
