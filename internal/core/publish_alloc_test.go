package core

import (
	"runtime"
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// TestPublishAllocatesOnlyTheStore pins that publishing a record list the
// master already holds allocates the store and nothing that grows with the
// list besides: a streamed connectivity run's input freeze, and a
// 900 000-record conn-publish round (about connectivity's largest on
// GNM(10^5, 4·10^5)), each allocate at most the slot-table and slab bytes
// their freeze reports fresh, plus 128 KiB per freeze task and 256 KiB. A
// task's share is its entry batch (14 KiB) and, for the stream, the
// adjacency cursors of the stream replays it runs (4n bytes each); the
// constant is the store's shard headers and the freeze's per-shard scratch.
// Buffering the records in writers first costs 28 bytes per record more,
// about 25 MB here.
func TestPublishAllocatesOnlyTheStore(t *testing.T) {
	bound := func(fresh int64) int64 { return fresh + int64(runtime.GOMAXPROCS(0))<<17 + 1<<18 }
	measure := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	cfg := ampc.Config{P: 512, S: 1 << 12, Seed: 1, Workers: 2}

	t.Run("stream-ingest", func(t *testing.T) {
		const n, m = 10_000, 450_000
		es := graph.StreamGNM(n, m, 7)
		deg := make([]int32, n)
		es.Each(func(u, v int) {
			deg[u]++
			deg[v]++
		})
		var verts []int32
		for v, dv := range deg {
			if dv > 0 {
				verts = append(verts, int32(v))
			}
		}
		d, err := newFlatDriver(n, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		rt := ampc.New(cfg)
		defer rt.Close()
		got := measure(func() { streamIngest(rt, d, es, deg, verts) })
		fz := rt.InputFreeze()
		want := bound(fz.FreshTableBytes + fz.FreshSlabBytes)
		t.Logf("ingest of %d records allocates %d bytes; bound %d", rt.Store().Len(), got, want)
		if got > want {
			t.Fatalf("ingest of %d records allocates %d bytes, more than its store's fresh tables and slabs and the per-task allowance (%d)",
				rt.Store().Len(), got, want)
		}
	})

	t.Run("conn-publish", func(t *testing.T) {
		g := graph.GNM(100_000, 400_000, rng.New(53, 0))
		d, err := newFlatDriver(g.N(), false, 2)
		if err != nil {
			t.Fatal(err)
		}
		gc := d.fromGraph(g)
		rt := ampc.New(cfg)
		defer rt.Close()
		got := measure(func() {
			if err := publishContracted(rt, gc, 1); err != nil {
				t.Fatal(err)
			}
		})
		st := rt.Stats()[0]
		want := bound(st.FreshTableBytes + st.FreshSlabBytes)
		t.Logf("publish of %d records allocates %d bytes; bound %d", gc.records(), got, want)
		if got > want {
			t.Fatalf("publish of %d records allocates %d bytes, more than its store's fresh tables and slabs and the per-task allowance (%d)",
				gc.records(), got, want)
		}
	})
}
