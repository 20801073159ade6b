package ampc

import (
	"errors"
	"testing"

	"ampc/internal/dds"
	"ampc/internal/rpc"
)

func TestReadManyMatchesRead(t *testing.T) {
	rt := New(cfg(1, 100))
	rt.SetInput([]dds.KV{pair(0, 10), pair(1, 11), pair(3, 13)})
	err := rt.Round("batch", func(ctx *Ctx) error {
		keys := []dds.Key{key(0, 0), key(1, 0), key(2, 0), key(3, 0), key(0, 0)}
		out := ctx.ReadMany(keys, nil)
		want := []ValueOK{
			{Value: val(10, 0), OK: true},
			{Value: val(11, 0), OK: true},
			{},
			{Value: val(13, 0), OK: true},
			{Value: val(10, 0), OK: true},
		}
		if len(out) != len(want) {
			t.Fatalf("len = %d", len(out))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("out[%d] = %+v, want %+v", i, out[i], want[i])
			}
		}
		// 4 distinct keys charged; the duplicate and any repeat are free.
		if ctx.Queries() != 4 {
			t.Errorf("Queries = %d, want 4", ctx.Queries())
		}
		ctx.ReadMany(keys, out[:0])
		if ctx.Queries() != 4 {
			t.Errorf("Queries after repeat = %d, want 4", ctx.Queries())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadManyBudgetExhaustion(t *testing.T) {
	rt := New(Config{P: 1, S: 2, BudgetFactor: 1, Seed: 1})
	rt.SetInput([]dds.KV{pair(0, 1), pair(1, 2), pair(2, 3)})
	err := rt.Round("overspend", func(ctx *Ctx) error {
		out := ctx.ReadMany([]dds.Key{key(0, 0), key(1, 0), key(2, 0)}, nil)
		if !out[0].OK || !out[1].OK {
			t.Error("reads within budget failed")
		}
		if out[2].OK {
			t.Error("read beyond budget succeeded")
		}
		return nil
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestReadIndexedManyMatchesReadIndexed checks that a ReadAll drain
// matches the key's values index by index, that a repeat is a free cache
// hit (its two read calls still counted), and that a second key drains
// in its own count and range, charged per index.
func TestReadIndexedManyMatchesReadIndexed(t *testing.T) {
	k, k2 := key(5, 0), key(6, 0)
	input := []dds.KV{
		{Key: k, Value: val(10, 0)},
		{Key: k, Value: val(20, 0)},
		{Key: k, Value: val(30, 0)},
		{Key: k2, Value: val(40, 0)},
		{Key: k2, Value: val(50, 0)},
	}
	rt := New(cfg(1, 100))
	rt.SetInput(input)
	err := rt.Round("dup", func(ctx *Ctx) error {
		check := func(what string, out []ValueOK, want []int64, queries int) {
			t.Helper()
			if len(out) != len(want) {
				t.Fatalf("%s: %d values %+v, want %v", what, len(out), out, want)
			}
			for i, w := range want {
				if !out[i].OK || out[i].Value.A != w {
					t.Errorf("%s: index %d = %+v, want A=%d", what, i, out[i], w)
				}
			}
			if ctx.Queries() != queries {
				t.Errorf("%s: Queries = %d, want %d", what, ctx.Queries(), queries)
			}
		}
		out := ctx.ReadAll(k, nil)
		check("first drain", out, []int64{10, 20, 30}, 4)
		// A second drain over the warmed cache must agree, for free.
		out = ctx.ReadAll(k, out[:0])
		check("cached drain", out, []int64{10, 20, 30}, 4)
		out = ctx.ReadAll(k2, out[:0])
		check("second key", out, []int64{40, 50}, 7)
		if ctx.calls != 6 {
			t.Errorf("read calls = %d, want 6", ctx.calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadStaticManyMatchesReadStatic(t *testing.T) {
	rt := New(cfg(2, 100))
	if err := rt.AddStatic("s", []dds.KV{pair(1, 11), pair(2, 22)}); err != nil {
		t.Fatal(err)
	}
	err := rt.Round("read", func(ctx *Ctx) error {
		out := ctx.ReadStaticMany([]dds.Key{key(1, 0), key(9, 0), key(2, 0)}, nil)
		if !out[0].OK || out[0].Value.A != 11 || out[1].OK || !out[2].OK || out[2].Value.A != 22 {
			t.Errorf("static batch = %+v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledExecutorReuse runs many rounds with more machines than workers
// and checks per-round accounting stays exact — the pooled Ctx reset must
// not leak caches, budgets or RNG state between machines or rounds.
func TestPooledExecutorReuse(t *testing.T) {
	const p, rounds = 32, 6
	rt := New(Config{P: p, S: 50, Seed: 9, Workers: 3})
	rt.SetInput([]dds.KV{pair(0, 1)})
	for i := 0; i < rounds; i++ {
		err := rt.Round("r", func(ctx *Ctx) error {
			if _, ok := ctx.Read(key(0, 0)); i == 0 && !ok {
				t.Error("input read failed")
			}
			ctx.Read(key(int64(ctx.Machine), 7)) // distinct absent key per machine
			ctx.Write(key(0, 0), val(1, 0))      // keep the key alive for the next round
			ctx.Write(key(int64(ctx.Machine), int64(i)), val(int64(i), 0))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()[i]
		if st.Queries != 2*p {
			t.Fatalf("round %d: Queries = %d, want %d", i, st.Queries, 2*p)
		}
		if st.MaxMachineQueries != 2 {
			t.Fatalf("round %d: MaxMachineQueries = %d, want 2", i, st.MaxMachineQueries)
		}
		if st.Writes != 2*p || st.Pairs != 2*p {
			t.Fatalf("round %d: Writes = %d Pairs = %d, want %d", i, st.Writes, st.Pairs, 2*p)
		}
		if st.Execute < 0 || st.Freeze < 0 {
			t.Fatalf("round %d: negative phase timings %v %v", i, st.Execute, st.Freeze)
		}
	}
	rt.Close()
}

// TestWorkerCountInvariance re-runs the fault-injection determinism check
// across worker counts at the runtime level.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []int64 {
		rt := New(Config{P: 16, S: 200, Seed: 31, Workers: workers, FaultProb: 0.4})
		rt.SetInput([]dds.KV{pair(0, 5)})
		for round := 0; round < 4; round++ {
			err := rt.Round("work", func(ctx *Ctx) error {
				v, _ := ctx.Read(key(0, 0))
				r := int64(ctx.RNG.Intn(1000))
				ctx.Write(key(0, 0), val(v.A+1, 0))
				ctx.Write(key(100+int64(ctx.Machine), int64(round)), val(r, 0))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		out := make([]int64, 16)
		for m := range out {
			v, ok := rt.Store().Get(key(100+int64(m), 3))
			if !ok {
				t.Fatalf("machine %d output missing", m)
			}
			out[m] = v.A
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for m := range base {
			if got[m] != base[m] {
				t.Fatalf("workers=%d: machine %d output %d, want %d", w, m, got[m], base[m])
			}
		}
	}
}

// TestReadCallsAndBatchDuplicates counts read calls per machine — every
// call is one, however many keys it carries — and checks that a batched
// read with in-batch duplicates and memo hits answers and charges like Read
// in a loop, both on mem (the scalar loop) and over rpc (one GetMany).
func TestReadCallsAndBatchDuplicates(t *testing.T) {
	srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, c := range map[string]Config{
		"mem": {P: 2, S: 100, Seed: 1},
		"rpc": {P: 2, S: 100, Seed: 1, Backend: rpc.NewPublisher(rpc.Config{Servers: []string{srv.Addr()}})},
	} {
		rt := New(c)
		rt.SetInput([]dds.KV{pair(0, 10), pair(1, 11), pair(1, 12), pair(3, 13)})
		err := rt.Round("calls", func(ctx *Ctx) error {
			ctx.Read(key(3, 0))
			keys := []dds.Key{key(0, 0), key(2, 0), key(0, 0), key(3, 0), key(2, 0), key(0, 0)}
			out := ctx.ReadMany(keys, nil)
			for i, k := range keys {
				if v, ok := ctx.Read(k); out[i] != (ValueOK{v, ok}) {
					t.Errorf("%s: ReadMany[%d] = %+v, Read = %v %v", name, i, out[i], v, ok)
				}
			}
			if ctx.Queries() != 3 {
				t.Errorf("%s: Queries = %d, want 3 distinct keys", name, ctx.Queries())
			}
			if ctx.Machine == 1 {
				ctx.ReadAll(key(1, 0), nil)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Machine 1: Read, ReadMany, six Reads, and ReadAll's count and range.
		if got := rt.Stats()[0].MaxMachineReadCalls; got != 10 {
			t.Errorf("%s: MaxMachineReadCalls = %d, want 10", name, got)
		}
		if frames := rt.Stats()[0].RPCFrames; (name == "rpc") != (frames > 0) {
			t.Errorf("%s: %d rpc read frames", name, frames)
		}
		rt.Close()
	}
}
