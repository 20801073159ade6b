package core

import (
	"context"
	"runtime"
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// TestQueryLoopAllocationFloor runs one iteration's query loops — the pool
// draw and every owned element's visit, everything but the round's write —
// machine after machine on a single worker, and counts each machine's heap
// allocations. After the worker's first machine has sized the memo, the
// output buffer and coloring's color-set stack, a machine must allocate
// O(1): no per-machine map, no per-visit slice or set. What remains is
// amortized growth (a longer output buffer, a runtime cache table doubling),
// so the machines after the first are held to one allocation each on
// average, where the map-and-sort version made hundreds.
func TestQueryLoopAllocationFloor(t *testing.T) {
	g := graph.GNM(20000, 80000, rng.New(7, 0x7))
	vertexPi, edgePi := rng.New(7, 1).Perm(g.N()), rng.New(7, 2).Perm(g.M())
	for _, tc := range []struct {
		name   string
		n      int
		static []dds.KV
		tag    uint8
		eval   func(q *queryMachine, id int) int32
	}{
		{"mis", g.N(), graph.EncodeRanked(g, vertexPi), tagMISStatus, misEval},
		{"matching", g.M(), encodeLineGraph(g, edgePi), tagMatchStatus,
			func(q *queryMachine, e int) int32 { return matchEval(q, e, int64(edgePi[e])) }},
		{"coloring", g.N(), graph.EncodeRanked(g, vertexPi), tagColorStatus, colorEval},
	} {
		rt := Options{Seed: 7, Workers: 1}.withDefaults().newRuntime(context.Background(), g.N(), g.M())
		defer rt.Close()
		if err := rt.AddStatic("publish", tc.static); err != nil {
			t.Fatal(err)
		}
		var pool machinePool
		allocs := make([]uint64, rt.Config().P)
		settledIDs := 0
		err := rt.Round("probe", func(ctx *ampc.Ctx) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			q := pool.get(ctx, tc.tag, tc.n, false)
			lo, hi := ampc.BlockRange(ctx.Machine, tc.n, ctx.P)
			for id := lo; id < hi; id++ {
				q.capacity = ctx.S
				tc.eval(q, id)
			}
			settledIDs += len(q.out)
			pool.put(q)
			runtime.ReadMemStats(&after)
			allocs[ctx.Machine] = after.Mallocs - before.Mallocs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if settledIDs < tc.n/2 {
			t.Fatalf("%s: the loops settled only %d of %d ids: not a representative run", tc.name, settledIDs, tc.n)
		}
		var later uint64
		for _, a := range allocs[1:] {
			later += a
		}
		t.Logf("%s: first machine %d allocations, the %d after it %d", tc.name, allocs[0], len(allocs)-1, later)
		if machines := uint64(len(allocs) - 1); later > machines {
			t.Errorf("%s: %d allocations over the %d machines after the first (first: %d), want at most one each",
				tc.name, later, machines, allocs[0])
		}
	}
}
