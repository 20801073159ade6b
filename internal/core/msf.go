package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// MSFResult reports the outcome and cost of Algorithm 9.
type MSFResult struct {
	// Edges is the minimum spanning forest as original edges, sorted by
	// weight. Distinct weights make it unique.
	Edges []graph.WeightedEdge
	// Components labels each vertex with the canonical minimum id of its
	// forest component, populated only when Options.RetainStore was set.
	Components []int
	// Store is the retained final store holding the component labels under
	// the serving tag, populated only when Options.RetainStore was set: v's
	// component is Get(ServeKey(v)). The caller owns its Close.
	Store dds.StoreBackend
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// MSF computes the minimum spanning forest in O(log log_{T/n} n + 1/ε)
// phases w.h.p. (§7, Theorem 4). Each phase every vertex grows a local
// spanning tree with Prim's algorithm through adaptive DDS reads until it
// holds d vertices (Algorithm 8, MSFIncreaseDegree); the tree edges are
// committed to the MSF (they are minimum-cut edges of the contracted
// graph), leaders are sampled, and vertices contract to leaders inside
// their local trees. Contraction keeps the lightest edge per merged pair
// (the cycle property discards the rest), and the committed weights, looked
// up in the input sorted by weight, recover input edges as the paper's
// mapping M does.
func MSF(ctx context.Context, g *graph.WeightedGraph, opts Options) (MSFResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MSFResult{}, err
	}
	n := g.N()
	d, err := newFlatDriver(n, true, opts.Workers)
	if err != nil {
		return MSFResult{}, err
	}
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()

	// Adjacency lists are kept sorted by weight: lazy Prim then reads each
	// vertex's cheapest unread edge first and never needs a full list,
	// which is what bounds a local tree's reads by O(d²) (Lemma 6.1's
	// argument). The sort is a standard MPC primitive.
	wes := g.WeightedEdges()
	gc := d.fromWeighted(wes)
	phases, err := d.runPhases(ctx, rt, msfIncreaseDegree, gc, nil, opts.driverRNG(6), opts, n, g.M(), 0)
	if err != nil {
		return MSFResult{}, err
	}

	// Every committed weight is an MSF edge of some Gc, hence of G; weights
	// are distinct, so each names one input edge.
	slices.Sort(d.committed)
	committed := slices.Compact(d.committed)
	slices.SortFunc(wes, func(a, b graph.WeightedEdge) int { return cmp.Compare(a.Weight, b.Weight) })
	edges := make([]graph.WeightedEdge, 0, len(committed))
	for _, w := range committed {
		i, ok := slices.BinarySearchFunc(wes, w, func(e graph.WeightedEdge, w int64) int { return cmp.Compare(e.Weight, w) })
		if !ok {
			return MSFResult{}, fmt.Errorf("core: committed weight %d maps to no input edge", w)
		}
		edges = append(edges, wes[i])
	}
	res := MSFResult{Edges: edges}
	if opts.RetainStore {
		res.Components = forestComponents(n, edges)
		store, err := retainServeStore(rt, res.Components)
		if err != nil {
			return MSFResult{}, err
		}
		res.Store = store
	}
	res.Telemetry = d.telemetry(rt, phases)
	return res, nil
}

// SpanningForest computes an arbitrary spanning forest by running MSF over
// edge-index weights (Corollary 7.2). It returns the forest edges and a
// connectivity labeling derived from them. Its telemetry is MSF's rounds
// over the wall time of the whole call.
func SpanningForest(ctx context.Context, g *graph.Graph, opts Options) ([]graph.Edge, []int, Telemetry, error) {
	pl := newPipeline()
	if err := opts.validate(); err != nil {
		return nil, nil, Telemetry{}, err
	}
	opts.RetainStore = false // the forest is returned, not served
	wes := make([]graph.WeightedEdge, g.M())
	for i, e := range g.Edges() {
		wes[i] = graph.WeightedEdge{U: e.U, V: e.V, Weight: int64(i) + 1}
	}
	wg, err := graph.NewWeightedGraph(g.N(), wes)
	if err != nil {
		return nil, nil, Telemetry{}, err
	}
	res, err := MSF(ctx, wg, opts)
	if err != nil {
		return nil, nil, Telemetry{}, err
	}
	forest := make([]graph.Edge, len(res.Edges))
	for i, e := range res.Edges {
		forest[i] = graph.Edge{U: e.U, V: e.V}.Canon()
	}
	pl.add(res.Telemetry)
	return forest, forestComponents(g.N(), res.Edges), pl.telemetry(), nil
}

// msfIncreaseDegree is Algorithm 8: every vertex grows a local Prim tree of
// up to d vertices through adaptive reads and records both the tree members
// (Fv) and the chosen edge weights (E(v)).
func msfIncreaseDegree(rt *ampc.Runtime, verts []int32, d int, phase int) error {
	return rt.Round(fmt.Sprintf("msf-increase-%d", phase), func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		var out []dds.KV // per-vertex batch, reused across the machine's block
		for _, v := range verts[lo:hi] {
			fv, tree, whole, err := primExplore(ctx, int(v), d)
			if err != nil {
				return err
			}
			w := int64(0)
			if whole {
				w = 1
			}
			out = append(out[:0], dds.KV{
				Key:   dds.Key{Tag: tagConnSize, A: int64(v)},
				Value: dds.Value{A: int64(len(fv)), B: w},
			})
			for i, x := range fv {
				out = append(out, dds.KV{
					Key:   dds.Key{Tag: tagConnFound, A: int64(v), B: int64(i)},
					Value: dds.Value{A: int64(x)},
				})
			}
			for i, tw := range tree {
				out = append(out, dds.KV{
					Key:   dds.Key{Tag: tagMSFEdge, A: int64(v), B: int64(i)},
					Value: dds.Value{A: tw},
				})
			}
			ctx.WriteMany(out)
		}
		return ctx.Err()
	})
}

// wedge is one adjacency entry as a machine reads it: neighbor and weight.
type wedge struct {
	to int
	w  int64
}

// primExplore grows v's local Prim tree to at most d vertices using lazy
// cursors over weight-sorted adjacency lists: each tree vertex exposes its
// cheapest not-yet-consumed outgoing edge, every adjacency entry is read at
// most once, and the total reads stay O(d²) (Lemma 6.1's argument). It
// returns the non-v tree members, the chosen edge weights, and whether the
// whole component was exhausted. If the read cap trips, the expansion stops
// cleanly: all edges chosen so far were genuine minimum-cut selections and
// remain valid MSF edges.
func primExplore(ctx *ampc.Ctx, v, d int) ([]int, []int64, bool, error) {
	const block = 8
	readCap := 4*d*d + 64
	reads := 0

	type cursor struct {
		x       int
		deg     int
		next    int     // next unread adjacency index
		head    *wedge  // cheapest known crossing edge, nil if exhausted
		pending []wedge // read-ahead entries not yet consumed, in weight order
	}
	inTree := map[int]bool{v: true}
	var members []int
	var treeWeights []int64
	var cursors []*cursor
	var keys []dds.Key
	var vals []ampc.ValueOK

	// advance refreshes a cursor so head is the cheapest edge of x leaving
	// the tree, or nil if x has none left. The adjacency list is pulled in
	// small batched blocks; unconsumed entries wait in pending, so every
	// entry is still read (and budget-charged) at most once. truncated
	// reports a tripped read cap.
	truncated := false
	advance := func(c *cursor) error {
		if c.head != nil && !inTree[c.head.to] {
			return nil
		}
		c.head = nil
		for {
			for len(c.pending) > 0 {
				e := c.pending[0]
				c.pending = c.pending[1:]
				if !inTree[e.to] {
					c.head = &wedge{to: e.to, w: e.w}
					return nil
				}
			}
			if c.next >= c.deg {
				return nil
			}
			if reads >= readCap {
				truncated = true
				return nil
			}
			batch := c.deg - c.next
			if batch > block {
				batch = block
			}
			if rem := readCap - reads; batch > rem {
				batch = rem
			}
			keys = keys[:0]
			for t := 0; t < batch; t++ {
				keys = append(keys, dds.Key{Tag: tagConnAdj, A: int64(c.x), B: int64(c.next + t)})
			}
			vals = ctx.ReadMany(keys, vals[:0])
			for t, a := range vals {
				if !a.OK {
					return fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", c.x, c.next+t, ctx.Err())
				}
				c.pending = append(c.pending, wedge{to: int(a.Value.A), w: a.Value.B})
			}
			reads += batch
			c.next += batch
		}
	}
	addCursor := func(x int) error {
		if reads >= readCap {
			truncated = true
			return nil
		}
		deg, ok := ctx.Read(dds.Key{Tag: tagConnDeg, A: int64(x)})
		if !ok {
			return fmt.Errorf("core: missing degree for %d (err %v)", x, ctx.Err())
		}
		reads++
		c := &cursor{x: x, deg: int(deg.A)}
		cursors = append(cursors, c)
		return advance(c)
	}

	if err := addCursor(v); err != nil {
		return nil, nil, false, err
	}
	for len(inTree) < d+1 && !truncated {
		// The cheapest head across all tree vertices is the minimum-weight
		// edge crossing the tree cut (lists are weight-sorted).
		var best *cursor
		for _, c := range cursors {
			if err := advance(c); err != nil {
				return nil, nil, false, err
			}
			if truncated {
				return members, treeWeights, false, nil
			}
			if c.head != nil && (best == nil || c.head.w < best.head.w) {
				best = c
			}
		}
		if best == nil {
			return members, treeWeights, true, nil // component exhausted
		}
		chosen := *best.head
		best.head = nil
		inTree[chosen.to] = true
		members = append(members, chosen.to)
		treeWeights = append(treeWeights, chosen.w)
		if err := addCursor(chosen.to); err != nil {
			return nil, nil, false, err
		}
	}
	return members, treeWeights, false, nil
}

// kruskal is MSF's local solve over the remainder readRemainder read: a
// Kruskal pass whose chosen weights machine 0 writes for the master to
// commit.
func kruskal(offs []int, to []int32, w []int64) []dds.KV {
	type we struct {
		w    int64
		a, b int
	}
	var edges []we
	for i := range len(offs) - 1 {
		for e := offs[i]; e < offs[i+1]; e++ {
			if i < int(to[e]) {
				edges = append(edges, we{w: w[e], a: i, b: int(to[e])})
			}
		}
	}
	slices.SortFunc(edges, func(x, y we) int { return cmp.Compare(x.w, y.w) })
	dsu := graph.NewDSU(len(offs) - 1)
	var chosen []dds.KV
	for _, e := range edges {
		if dsu.Union(e.a, e.b) {
			chosen = append(chosen, dds.KV{
				Key:   dds.Key{Tag: tagMSFEdge, A: -1, B: int64(len(chosen))},
				Value: dds.Value{A: e.w},
			})
		}
	}
	return chosen
}

// readCommitted appends the local solve's chosen weights to d.committed.
// The list ends at the first absent index, so a record the backend lost
// would silently truncate it: a latched read failure fails the phase
// instead.
func (d *flatDriver) readCommitted(store dds.StoreBackend) error {
	for i := 0; ; i++ {
		w, ok := store.Get(dds.Key{Tag: tagMSFEdge, A: -1, B: int64(i)})
		if !ok {
			break
		}
		d.committed = append(d.committed, w.A)
	}
	if cause := store.ReadErr(); cause != nil {
		return fmt.Errorf("core: reading committed MSF edges: %w", cause)
	}
	return nil
}
