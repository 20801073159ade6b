package core

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// DDS tag private to affinity clustering.
const tagAffPick = graph.TagAlgoBase + 42 // (tag, v, 0) -> (picked neighbor, weight)

// AffinityResult reports the outcome and cost of affinity clustering.
type AffinityResult struct {
	// Levels[l][v] is vertex v's cluster label after l+1 rounds of
	// minimum-edge merging. The last level has one cluster per connected
	// component.
	Levels [][]int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// AffinityClustering computes the affinity hierarchical clustering of
// Bateni et al. (NeurIPS 2017) — the second system whose DHT+MapReduce
// implementation motivated the AMPC model (see the paper's introduction).
// Each level every cluster joins its minimum-weight incident edge
// (Borůvka fragments); merged clusters keep the minimum inter-cluster
// weight. Levels halve the cluster count at least, so O(log n) levels
// complete the dendrogram; each level costs two AMPC rounds (publish +
// pick), with the pick reading only the first entry of a weight-sorted
// adjacency list — one adaptive read per cluster.
func AffinityClustering(ctx context.Context, g *graph.WeightedGraph, opts Options) (AffinityResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return AffinityResult{}, err
	}
	n := g.N()
	d, err := newFlatDriver(n, true, opts.Workers)
	if err != nil {
		return AffinityResult{}, err
	}
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()

	gc := d.fromWeighted(g.WeightedEdges())
	m2 := identityMap(n)

	var levels [][]int
	maxLevels := 2*bits.Len(uint(n)) + 4
	for level := 0; len(gc.verts) > 0 && gc.edges() > 0; level++ {
		if level > maxLevels {
			return AffinityResult{}, fmt.Errorf("core: affinity clustering failed to converge after %d levels", maxLevels)
		}

		if err := publishContracted(rt, gc, 5000+level); err != nil {
			return AffinityResult{}, err
		}
		// Pick round: every cluster reads its single cheapest edge (the
		// first entry of its weight-sorted list).
		verts := gc.verts
		err := rt.Round(fmt.Sprintf("affinity-pick-%d", level), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
			for _, v := range verts[lo:hi] {
				e, ok := ctx.Read(dds.Key{Tag: tagConnAdj, A: int64(v), B: 0})
				if !ok {
					return fmt.Errorf("core: cluster %d has no edges in pick round (err %v)", v, ctx.Err())
				}
				ctx.Write(dds.Key{Tag: tagAffPick, A: int64(v)}, dds.Value{A: e.A, B: e.B})
			}
			return ctx.Err()
		})
		if err != nil {
			return AffinityResult{}, err
		}

		if err := d.fragmentTargets(rt.Store(), verts); err != nil {
			return AffinityResult{}, err
		}
		gc = d.contract(gc, m2)

		snapshot := make([]int, n)
		copy(snapshot, m2)
		levels = append(levels, snapshot)
	}
	if len(levels) == 0 {
		// Edgeless graph: a single trivial level of singletons.
		snapshot := make([]int, n)
		copy(snapshot, m2)
		levels = append(levels, snapshot)
	}
	return AffinityResult{Levels: levels, Telemetry: d.telemetry(rt, len(levels))}, nil
}

// fragmentTargets reads back every cluster's picked edge, unions along the
// picks (Borůvka fragments — an MPC contraction step) and sets each
// cluster's contraction target to its fragment's minimum member.
func (d *flatDriver) fragmentTargets(store dds.StoreBackend, verts []int32) error {
	defer since(&d.times.readback, time.Now())
	d.found = resized(d.found, len(verts))
	picks := d.found
	err := d.rb.perVertex(store, tagAffPick, "pick", verts, func(i int, p dds.Value) {
		picks[i] = int32(p.A)
	})
	if err != nil {
		return err
	}
	dsu := graph.NewDSU(len(d.target))
	for i, v := range verts {
		dsu.Union(int(v), int(picks[i]))
	}
	// Canonical fragment label: the minimum member, which in ascending
	// order is the first member met. A root's own target is its fragment's
	// label, so the roots' entries double as the per-fragment table and the
	// leader marks record which roots are set.
	target, seen := d.target, d.leader
	for _, v := range verts {
		if r := dsu.Find(int(v)); !seen[r] {
			seen[r] = true
			target[r] = v
		}
	}
	for _, v := range verts {
		target[v] = target[dsu.Find(int(v))]
	}
	for _, v := range verts {
		seen[v] = false
	}
	return nil
}

// AffinityOracle is the sequential reference: identical merge rule, used by
// the tests.
func AffinityOracle(g *graph.WeightedGraph) [][]int {
	n := g.N()
	label := make([]int, n)
	for v := range label {
		label[v] = v
	}
	type cedge struct {
		a, b int
		w    int64
	}
	// Current inter-cluster edges with min weights.
	edges := map[[2]int]int64{}
	for _, e := range g.WeightedEdges() {
		edges[[2]int{e.U, e.V}] = e.Weight
	}
	var levels [][]int
	for len(edges) > 0 {
		// Each cluster picks its min incident edge.
		best := map[int]cedge{}
		consider := func(c int, e cedge) {
			if cur, ok := best[c]; !ok || e.w < cur.w {
				best[c] = e
			}
		}
		for k, w := range edges {
			consider(k[0], cedge{k[0], k[1], w})
			consider(k[1], cedge{k[0], k[1], w})
		}
		dsu := graph.NewDSU(n)
		for v := 0; v < n; v++ {
			dsu.Union(v, label[v])
		}
		for _, e := range best {
			dsu.Union(e.a, e.b)
		}
		minOf := map[int]int{}
		for v := 0; v < n; v++ {
			r := dsu.Find(v)
			if cur, ok := minOf[r]; !ok || v < cur {
				minOf[r] = v
			}
		}
		for v := 0; v < n; v++ {
			label[v] = minOf[dsu.Find(v)]
		}
		next := map[[2]int]int64{}
		for k, w := range edges {
			a, b := label[k[0]], label[k[1]]
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if cur, ok := next[[2]int{a, b}]; !ok || w < cur {
				next[[2]int{a, b}] = w
			}
		}
		edges = next
		snapshot := make([]int, n)
		copy(snapshot, label)
		levels = append(levels, snapshot)
	}
	if len(levels) == 0 {
		snapshot := make([]int, n)
		copy(snapshot, label)
		levels = append(levels, snapshot)
	}
	return levels
}
