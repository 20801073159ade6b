package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
	"ampc/internal/rpc"
)

// exploreFixture publishes g's contracted form (phase 1) on a fresh
// runtime of p machines with per-machine budget budget and returns it with
// that form and its shuffled live vertices.
func exploreFixture(t testing.TB, g *graph.Graph, p, budget int) (*ampc.Runtime, *contracted, []int32) {
	t.Helper()
	d, err := newFlatDriver(g.N(), false, 2)
	if err != nil {
		t.Fatal(err)
	}
	gc := d.fromGraph(g)
	rt := ampc.New(ampc.Config{P: p, S: budget, BudgetFactor: 1, Workers: 2, Seed: 1})
	t.Cleanup(func() { rt.Close() })
	if err := publishContracted(rt, gc, 1); err != nil {
		t.Fatal(err)
	}
	return rt, gc, slices.Clone(d.shuffled(gc.verts, rng.New(9, 1)))
}

// exploration is one vertex's result: its visited order and whole flag,
// and on the lock-step side whether it stopped at its read cap.
type exploration struct {
	found  []int32
	whole  bool
	capped bool
}

// exploreInput is an exploration input: the vertices to explore, in
// block order, and a fresh runtime of p machines whose next round reads
// their degree and adjacency records.
type exploreInput struct {
	verts []int32
	open  func(p int) *ampc.Runtime
}

func graphInput(t *testing.T, g *graph.Graph) exploreInput {
	_, _, verts := exploreFixture(t, g, 1, 1<<20)
	return exploreInput{verts, func(p int) *ampc.Runtime {
		rt, _, _ := exploreFixture(t, g, p, 1<<20)
		return rt
	}}
}

// exploreBoth runs every vertex's exploration once through the lock-step
// blockBFS and once through the sequential oracle, each on its own runtime
// over the same store, and returns both results and per-machine queries.
func exploreBoth(t *testing.T, in exploreInput, block, d int) (lock, seq []exploration, lockQ, seqQ []int) {
	t.Helper()
	verts := in.verts
	p := (len(verts) + block - 1) / block
	rtL, rtS := in.open(p), in.open(p)
	lock, seq = make([]exploration, len(verts)), make([]exploration, len(verts))
	lockQ, seqQ = make([]int, p), make([]int, p)
	err := rtL.Round("lockstep", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		b := new(blockBFS)
		b.reset(verts[lo:hi], d)
		if err := b.run(ctx); err != nil {
			return err
		}
		for e := range b.ex {
			x := &b.ex[e]
			if x.reads > b.readCap {
				return fmt.Errorf("vertex %d read %d keys, over its cap %d", verts[lo+e], x.reads, b.readCap)
			}
			w := e * int(b.w)
			lock[lo+e] = exploration{slices.Clone(b.win[w+1 : w+int(x.n)]), x.whole, x.reads == b.readCap}
		}
		lockQ[ctx.Machine] = ctx.Queries()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rtS.Round("sequential", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		var st bfsScratch
		for i := lo; i < hi; i++ {
			found, whole, err := bfsExplore(ctx, &st, int(verts[i]), d)
			if err != nil {
				return err
			}
			f := make([]int32, len(found))
			for j, u := range found {
				f[j] = int32(u)
			}
			seq[i] = exploration{found: f, whole: whole}
		}
		seqQ[ctx.Machine] = ctx.Queries()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return lock, seq, lockQ, seqQ
}

// smallComponents is a union of components of at most 6 vertices, so
// explorations with d ≥ 5 exhaust theirs and report whole.
func smallComponents() *graph.Graph {
	var gs []*graph.Graph
	for i := 0; i < 60; i++ {
		gs = append(gs, graph.Path(2+i%5), graph.Cycle(3+i%4), graph.Star(2+i%5))
	}
	return graph.Union(gs...)
}

func TestLockstepExploreMatchesSequential(t *testing.T) {
	power := graph.PowerLaw(1500, 6000, rng.New(3, 0x7))
	if power.MaxDeg() <= readBlock {
		t.Fatalf("power-law fixture has Δ = %d, want > %d so adjacency reads split", power.MaxDeg(), readBlock)
	}
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(1500, 6000, rng.New(2, 0x7))},
		{"powerlaw", power},
		{"star", graph.Star(400)},
		{"path", graph.Path(400)},
		{"cycle", graph.Cycle(400)},
		{"components", smallComponents()},
	}
	for _, in := range inputs {
		anyWhole := false
		input := graphInput(t, in.g)
		for _, d := range []int{2, 3, 7, 17} {
			for _, block := range []int{1, 2, 39, 200} {
				lock, seq, lockQ, seqQ := exploreBoth(t, input, block, d)
				for i := range seq {
					if !slices.Equal(lock[i].found, seq[i].found) || lock[i].whole != seq[i].whole {
						t.Fatalf("%s d=%d block=%d: exploration %d = %v whole=%v, sequential %v whole=%v",
							in.name, d, block, i, lock[i].found, lock[i].whole, seq[i].found, seq[i].whole)
					}
					anyWhole = anyWhole || seq[i].whole
				}
				if !slices.Equal(lockQ, seqQ) {
					t.Fatalf("%s d=%d block=%d: per-machine queries %v, sequential %v", in.name, d, block, lockQ, seqQ)
				}
			}
		}
		if in.name == "components" && !anyWhole {
			t.Fatal("no exploration of the small components was whole")
		}
	}
}

// TestLockstepExploreReadCap runs the explorations over a ring multigraph
// whose adjacency lists repeat both neighbours about 25 times: contraction
// never publishes one, and only re-read neighbours make an exploration
// reach its read cap of 2d²+32 keys before its window fills. At d = 3 the
// first vertex's 1 + 49 reads meet the cap of 50 exactly at the end of its
// adjacency.
func TestLockstepExploreReadCap(t *testing.T) {
	const n, deg = 30, 49
	var pairs []dds.KV
	for v := 0; v < n; v++ {
		pairs = append(pairs, dds.KV{Key: dds.Key{Tag: tagConnDeg, A: int64(v)}, Value: dds.Value{A: deg}})
		for i := 0; i < deg; i++ {
			u := (v + 1) % n
			if i%2 == 1 {
				u = (v + n - 1) % n
			}
			pairs = append(pairs, dds.KV{Key: dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(i)}, Value: dds.Value{A: int64(u)}})
		}
	}
	verts := make([]int32, n)
	for v := range verts {
		verts[v] = int32(v)
	}
	in := exploreInput{verts, func(p int) *ampc.Runtime {
		rt := ampc.New(ampc.Config{P: p, S: 1 << 20, BudgetFactor: 1, Workers: 2, Seed: 1})
		t.Cleanup(func() { rt.Close() })
		rt.SetInput(pairs)
		return rt
	}}
	for _, d := range []int{3, 7, 17} {
		for _, block := range []int{1, 3, 30} {
			lock, seq, lockQ, seqQ := exploreBoth(t, in, block, d)
			capped := 0
			for i := range seq {
				if !slices.Equal(lock[i].found, seq[i].found) || lock[i].whole != seq[i].whole {
					t.Fatalf("d=%d block=%d: exploration %d = %v whole=%v, sequential %v whole=%v",
						d, block, i, lock[i].found, lock[i].whole, seq[i].found, seq[i].whole)
				}
				if lock[i].capped {
					capped++
				}
			}
			if !slices.Equal(lockQ, seqQ) {
				t.Fatalf("d=%d block=%d: per-machine queries %v, sequential %v", d, block, lockQ, seqQ)
			}
			if capped == 0 {
				t.Fatalf("d=%d block=%d: no exploration reached its read cap", d, block)
			}
		}
	}
}

// TestLockstepExploreBudget: a machine budget the block's reads exhaust
// fails the round with ErrBudget on both paths.
func TestLockstepExploreBudget(t *testing.T) {
	g := graph.GNM(1500, 6000, rng.New(2, 0x7))
	for name, increase := range map[string]exploreRound{
		"lockstep":   increaseDegrees,
		"sequential": increaseDegreesSequential,
	} {
		rt, _, verts := exploreFixture(t, g, 8, 2500)
		if err := increase(rt, verts, 17, 1); !errors.Is(err, ampc.ErrBudget) {
			t.Fatalf("%s: over-budget increase round returned %v, want ErrBudget", name, err)
		}
	}
}

// increaseChains runs the shared phase loop with the given increase round
// and returns each increase round's MaxMachineReadCalls and the final
// labels.
func increaseChains(t *testing.T, g *graph.Graph, increase exploreRound) ([]int, []int) {
	t.Helper()
	opts := Options{Seed: 1, Epsilon: 0.5}.withDefaults()
	n := g.N()
	d, err := newFlatDriver(n, false, opts.Workers)
	if err != nil {
		t.Fatal(err)
	}
	rt := opts.newRuntime(context.Background(), n, g.M())
	defer rt.Close()
	if rt.Config().P != 512 {
		t.Fatalf("P = %d, want 512", rt.Config().P)
	}
	m2 := identityMap(n)
	if _, err := d.runPhases(context.Background(), rt, increase, d.fromGraph(g), m2, opts.driverRNG(5), opts, n, g.M(), 0); err != nil {
		t.Fatal(err)
	}
	var chains []int
	for _, st := range rt.Stats() {
		if strings.HasPrefix(st.Name, "conn-increase-") {
			chains = append(chains, st.MaxMachineReadCalls)
		}
	}
	return chains, m2
}

// TestLockstepReadChain pins the point of the lock-step: on the rpc
// benchmark's graph each increase round's longest chain of read calls is
// a handful, a quarter or less of the sequential explorations' in sum. The
// local solve reads its remainder in two calls, charging the 648 queries
// the per-vertex reads it replaced charged.
func TestLockstepReadChain(t *testing.T) {
	g := graph.GNM(20000, 80000, rng.New(1, 0x7))
	lock, lockLabels := increaseChains(t, g, increaseDegrees)
	seq, seqLabels := increaseChains(t, g, increaseDegreesSequential)
	if !slices.Equal(lockLabels, seqLabels) {
		t.Fatal("lock-step and sequential phases contracted differently")
	}
	res, err := Connectivity(context.Background(), g, Options{Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	locals := 0
	for _, st := range res.Telemetry.RoundStats {
		if strings.HasPrefix(st.Name, "conn-increase-") {
			got = append(got, st.MaxMachineReadCalls)
		}
		if strings.HasPrefix(st.Name, "conn-local-") {
			locals++
			if st.MaxMachineReadCalls != 2 || st.Queries != 648 {
				t.Errorf("%s: %d read calls and %d queries, want 2 and 648", st.Name, st.MaxMachineReadCalls, st.Queries)
			}
		}
	}
	if locals != 1 {
		t.Errorf("%d local-solve rounds, want 1", locals)
	}
	if !slices.Equal(got, lock) {
		t.Fatalf("Connectivity's increase rounds made chains %v, the phase replay %v", got, lock)
	}
	sum := func(xs []int) (s int) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	t.Logf("longest read chain per increase round: lock-step %v (Σ %d), sequential %v (Σ %d)", lock, sum(lock), seq, sum(seq))
	for i, c := range lock {
		if c > 8 {
			t.Errorf("increase round %d: longest read chain %d, want ≤ 8", i+1, c)
		}
	}
	if 4*sum(lock) > sum(seq) {
		t.Errorf("Σ read chains %d, want ≤ 1/4 of the sequential %d", sum(lock), sum(seq))
	}
	if res.Telemetry.AdaptiveDepth < sum(lock) {
		t.Errorf("AdaptiveDepth %d below the increase rounds' Σ %d", res.Telemetry.AdaptiveDepth, sum(lock))
	}
}

// TestExploreAllocs: a warmed-up increase round allocates a constant number
// of times per machine, whatever the block size — the explorations' state
// is a few slices per machine, never per explored vertex.
func TestExploreAllocs(t *testing.T) {
	const p = 64
	perMachine := make(map[int]float64)
	for _, block := range []int{10, 200} {
		rt, gc, verts := exploreFixture(t, graph.Cycle(p*block), p, 1<<20)
		best := math.Inf(1)
		for i := 0; i < 6; i++ {
			// An increase round reads the store the previous round
			// published: republish the graph, and count only the increase.
			if i > 0 {
				if err := publishContracted(rt, gc, 1); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := increaseDegrees(rt, verts, 7, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i >= 2 {
				best = min(best, float64(after.Mallocs-before.Mallocs))
			}
		}
		perMachine[block] = best / p
	}
	t.Logf("allocations per machine: %.2f at 10 vertices each, %.2f at 200", perMachine[10], perMachine[200])
	if perMachine[200] > perMachine[10]+0.5 || perMachine[10] > 10 {
		t.Fatalf("allocations per machine %.2f (block 10) and %.2f (block 200): want the same small constant",
			perMachine[10], perMachine[200])
	}
}

// BenchmarkIncreaseRound times the first increase round of the rpc
// benchmark's graph, GNM(2·10⁴, 8·10⁴) on 512 machines, in process (mem)
// and over an in-process fleet of 3 shard servers at R = 2 (rpc). ns/op
// includes the round's freeze and, on rpc, its join of the publish before
// it; ns/query is the execute phase alone per charged query.
func BenchmarkIncreaseRound(b *testing.B) {
	g := graph.GNM(20000, 80000, rng.New(1, 0x7))
	for _, backend := range []string{BackendMem, BackendRPC} {
		b.Run(backend, func(b *testing.B) {
			opts := Options{Seed: 1, Epsilon: 0.5, Backend: backend}
			if backend == BackendRPC {
				fleet, err := rpc.StartFleet(make([]rpc.ServerConfig, 3))
				if err != nil {
					b.Fatal(err)
				}
				defer fleet.Close()
				opts.Servers, opts.Replication = fleet.Addrs(), 2
			}
			opts = opts.withDefaults()
			d, err := newFlatDriver(g.N(), false, opts.Workers)
			if err != nil {
				b.Fatal(err)
			}
			gc := d.fromGraph(g)
			rt := opts.newRuntime(context.Background(), g.N(), g.M())
			defer rt.Close()
			verts := slices.Clone(d.shuffled(gc.verts, rng.New(1, 1)))
			budget := connExploreBudget(float64(opts.spaceFactor*(g.N()+g.M()+1)), len(verts), math.Pow(float64(g.N()), opts.Epsilon/2))
			var queries, frames int64
			var execute time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := publishContracted(rt, gc, 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := increaseDegrees(rt, verts, budget, 1); err != nil {
					b.Fatal(err)
				}
				st := rt.Stats()
				queries += st[len(st)-1].Queries
				frames += st[len(st)-1].RPCFrames
				execute += st[len(st)-1].Execute
			}
			b.ReportMetric(float64(execute.Nanoseconds())/float64(queries), "ns/query")
			b.ReportMetric(float64(frames)/float64(b.N), "frames/round")
		})
	}
}
