package core

import (
	"context"
	"fmt"

	"ampc/internal/graph"
)

// RootedForest is the output of RootForest: a rooted representation of a
// forest together with the Euler-tour machinery used by the tree-property
// algorithms (§8.1) and 2-edge connectivity (§9).
type RootedForest struct {
	// Parent maps each vertex to its parent; roots map to themselves.
	Parent []int
	// Root maps each vertex to the root of its tree.
	Root []int
	// Tour is the Euler tour structure of the underlying forest.
	Tour *eulerTour
	// DartRank[d] is the position of dart d in its tree's tour, starting
	// at 0 for the first dart leaving the root.
	DartRank []int
	// Telemetry is the list-ranking run's rounds over the wall time of the
	// whole RootForest call.
	Telemetry Telemetry
}

// RootForest roots each tree of forest g at the given root (one root per
// tree) in O(1/ε) AMPC rounds (§8.1, Theorem 7): the Euler tour of each
// tree is broken at the root into a list, list ranking positions every
// dart, and each vertex's parent is the tail of the earliest dart entering
// it.
func RootForest(ctx context.Context, g *graph.Graph, roots []int, opts Options) (*RootedForest, error) {
	pl := newPipeline()
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.RetainStore = false // the ranks are used here, not served
	if !graph.IsForest(g) {
		return nil, fmt.Errorf("core: RootForest input has a cycle")
	}
	comp := graph.Components(g)
	rootOf := make(map[int]int) // component label -> chosen root
	for _, r := range roots {
		if r < 0 || r >= g.N() {
			return nil, fmt.Errorf("core: root %d out of range", r)
		}
		if prev, dup := rootOf[comp[r]]; dup {
			return nil, fmt.Errorf("core: roots %d and %d lie in the same tree", prev, r)
		}
		rootOf[comp[r]] = r
	}
	for v := 0; v < g.N(); v++ {
		if _, ok := rootOf[comp[v]]; !ok {
			return nil, fmt.Errorf("core: tree of vertex %d has no root", v)
		}
	}

	et := eulerTours(g)
	nd := 2 * g.M()

	// Break each tree's tour cycle at the root: the dart list starts at the
	// root's first outgoing dart and ends at that dart's tour predecessor.
	next := make([]int, nd)
	for d := 0; d < nd; d++ {
		next[d] = et.succ[d]
	}
	for _, r := range roots {
		if g.Deg(r) == 0 {
			continue // single-vertex tree: no darts
		}
		start := et.dartID(r, 0)
		next[et.pred[start]] = -1
	}

	lr, err := ListRanking(ctx, next, opts)
	if err != nil {
		return nil, err
	}
	pl.add(lr.Telemetry)

	// Parent of v = tail of the minimum-rank dart entering v. This is an
	// O(1)-round MPC aggregation (group darts by head, take the min);
	// computed master-side.
	parent := make([]int, g.N())
	root := make([]int, g.N())
	best := make([]int, g.N())
	for v := range parent {
		parent[v] = v
		best[v] = -1
	}
	for d := 0; d < nd; d++ {
		tail, head := et.endpoints(d)
		if best[head] == -1 || lr.Rank[d] < best[head] {
			best[head] = lr.Rank[d]
			parent[head] = tail
		}
	}
	for _, r := range roots {
		parent[r] = r
	}
	for v := 0; v < g.N(); v++ {
		root[v] = rootOf[comp[v]]
	}

	return &RootedForest{
		Parent:    parent,
		Root:      root,
		Tour:      et,
		DartRank:  lr.Rank,
		Telemetry: pl.telemetry(),
	}, nil
}

// Twin returns the reverse dart of d.
func Twin(d int) int { return d ^ 1 }

// IsForward reports whether dart d is the discovery (first-visit) dart of
// its edge under the given tour ranks: the one ranked before its twin.
func IsForward(rank []int, d int) bool { return rank[d] < rank[Twin(d)] }
