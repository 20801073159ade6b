package core

import (
	"context"
	"fmt"
	"math"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// CycleConnectivityResult reports the outcome and cost of Algorithm 10.
type CycleConnectivityResult struct {
	// Components labels every vertex with a canonical representative of its
	// cycle.
	Components []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// CycleConnectivity computes the connected components of a graph that is a
// disjoint union of cycles (Algorithm 10, Theorem 5): O(1/ε) iterations of
// Shrink with δ = ε/2 reduce the largest cycle to O(n^{ε/2}) w.h.p.; then a
// random permutation π is fixed and every surviving vertex searches one
// direction of its cycle until it meets a lower-π vertex (O(log k) queries
// in expectation, Lemma 8.2). Chasing those pointers yields the cycle
// minimum, and contracted vertices recover their label through the parent
// records left by Shrink.
func CycleConnectivity(ctx context.Context, g *graph.Graph, opts Options) (CycleConnectivityResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return CycleConnectivityResult{}, err
	}
	rt := opts.newRuntime(ctx, g.N(), g.M())
	defer rt.Close()
	cg, err := cycleGraphOf(g)
	if err != nil {
		return CycleConnectivityResult{}, err
	}
	driver := opts.driverRNG(1)

	labels, phases, err := cycleConnLabels(rt, cg, g.N(), opts, driver)
	if err != nil {
		return CycleConnectivityResult{}, err
	}
	comp := make([]int, g.N())
	for v := range comp {
		comp[v] = labels[v]
	}
	return CycleConnectivityResult{
		Components: comp,
		Telemetry:  telemetryFrom(rt, phases),
	}, nil
}

// cycleConnLabels runs the shrink + π-search pipeline on an arbitrary
// cycle graph and returns a canonical label for every vertex that was ever
// alive in cg (including vertices absorbed during shrink). It is shared by
// CycleConnectivity and ForestConnectivity.
func cycleConnLabels(rt *ampc.Runtime, cg *cycleGraph, n int, opts Options, driver *rng.RNG) (map[int]int, int, error) {
	original := append([]int(nil), cg.verts...)

	// Phase 1: shrink with δ = ε/2 (Corollary 8.1).
	t := int(math.Ceil((4-2*opts.Epsilon)/opts.Epsilon)) + 1
	sres, err := shrink(rt, cg, n, opts.Epsilon/2, t, driver)
	if err != nil {
		return nil, 0, err
	}
	remaining := sres.g

	// Publish the contraction parents once; the final chase reads them.
	parentPairs := make([]dds.KV, 0, len(sres.parent))
	for u, p := range sres.parent {
		parentPairs = append(parentPairs, dds.KV{
			Key:   dds.Key{Tag: tagCycParent, A: int64(u)},
			Value: dds.Value{A: int64(p)},
		})
	}
	if err := rt.AddStatic("cycle-parents", parentPairs); err != nil {
		return nil, 0, err
	}

	// Phase 2: fix a random permutation π over the survivors and publish
	// ranks plus adjacency.
	verts := remaining.verts
	rank := make(map[int]int, len(verts))
	perm := driver.Perm(len(verts))
	for i, v := range verts {
		rank[v] = perm[i]
	}
	err = rt.Round("pi-publish", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		for _, v := range verts[lo:hi] {
			a := remaining.adj[v]
			ctx.Write(dds.Key{Tag: tagCycAdj, A: int64(v)}, dds.Value{A: int64(a[0]), B: int64(a[1])})
			ctx.Write(dds.Key{Tag: tagCycPi, A: int64(v)}, dds.Value{A: int64(rank[v])})
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	// Phase 3: every survivor searches one direction of its cycle until it
	// meets a lower-rank vertex (or loops, in which case it is the cycle
	// minimum). The vertices are randomly distributed to machines.
	shuffled := append([]int(nil), verts...)
	driver.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	err = rt.Round("pi-search", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(shuffled), ctx.P)
		for _, u := range shuffled[lo:hi] {
			rep, err := piSearch(ctx, u)
			if err != nil {
				return err
			}
			ctx.Write(dds.Key{Tag: tagCycRep, A: int64(u)}, dds.Value{A: int64(rep)})
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	// Phase 4: chase the strictly rank-decreasing pointers to the cycle
	// minimum, the component representative.
	err = rt.Round("pi-resolve", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(shuffled), ctx.P)
		for _, u := range shuffled[lo:hi] {
			x := u
			for {
				v, ok := ctx.Read(dds.Key{Tag: tagCycRep, A: int64(x)})
				if !ok {
					return fmt.Errorf("core: missing rep record for %d (err %v)", x, ctx.Err())
				}
				if int(v.A) == x {
					break
				}
				x = int(v.A)
			}
			ctx.Write(dds.Key{Tag: tagCycLabel, A: int64(u)}, dds.Value{A: int64(x)})
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	// Phase 5: absorbed vertices recover their label by chasing parent
	// records (at most one hop per shrink iteration) to a survivor and
	// reading its label.
	labelOf := make([]int64, len(original))
	err = rt.Round("uncontract", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(original), ctx.P)
		for i, u := range original[lo:hi] {
			x := u
			for {
				p, ok := ctx.ReadStatic(dds.Key{Tag: tagCycParent, A: int64(x)})
				if !ok {
					break // x survived shrink
				}
				x = int(p.A)
			}
			l, ok := ctx.Read(dds.Key{Tag: tagCycLabel, A: int64(x)})
			if !ok {
				return fmt.Errorf("core: missing label for survivor %d (err %v)", x, ctx.Err())
			}
			labelOf[lo+i] = l.A
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	labels := make(map[int]int, len(original))
	for i, u := range original {
		labels[u] = int(labelOf[i])
	}
	return labels, sres.iterations, nil
}

// piSearch walks one direction from u until it hits a vertex of lower rank
// or returns to u. It returns the stopping vertex.
func piSearch(ctx *ampc.Ctx, u int) (int, error) {
	myRank, ok := ctx.Read(dds.Key{Tag: tagCycPi, A: int64(u)})
	if !ok {
		return 0, fmt.Errorf("core: missing rank for %d (err %v)", u, ctx.Err())
	}
	adj, ok := ctx.Read(dds.Key{Tag: tagCycAdj, A: int64(u)})
	if !ok {
		return 0, fmt.Errorf("core: missing adjacency for %d (err %v)", u, ctx.Err())
	}
	prev, cur := u, int(adj.A)
	for {
		if cur == u {
			return u, nil // full loop: u is its cycle's minimum-rank vertex
		}
		r, ok := ctx.Read(dds.Key{Tag: tagCycPi, A: int64(cur)})
		if !ok {
			return 0, fmt.Errorf("core: missing rank for %d during search (err %v)", cur, ctx.Err())
		}
		if r.A < myRank.A {
			return cur, nil
		}
		a, ok := ctx.Read(dds.Key{Tag: tagCycAdj, A: int64(cur)})
		if !ok {
			return 0, fmt.Errorf("core: missing adjacency for %d during search (err %v)", cur, ctx.Err())
		}
		next := int(a.A)
		if next == prev {
			next = int(a.B)
		}
		prev, cur = cur, next
	}
}
