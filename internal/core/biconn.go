package core

import (
	"context"
	"sort"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// DDS tags private to the biconnectivity algorithm.
const (
	tagBCLow  = graph.TagAlgoBase + 28 // (tag, v, 0) -> (Low(v), 0)
	tagBCHigh = graph.TagAlgoBase + 29 // (tag, v, 0) -> (High(v), 0)
)

// BiconnResult reports the outcome and cost of the BC-labeling pipeline
// (Algorithm 12).
type BiconnResult struct {
	// Bridges lists the bridge edges in canonical sorted order.
	Bridges []graph.Edge
	// ArticulationPoints lists the cut vertices in increasing order.
	ArticulationPoints []int
	// TwoEdgeComponents labels each vertex with a canonical representative
	// of its 2-edge-connected component.
	TwoEdgeComponents []int
	// BlockLabel is the BC-labeling L: for a non-root vertex v it names the
	// biconnected component containing the tree edge (v, parent(v)).
	BlockLabel []int
	// Telemetry sums the cost of all pipeline stages; its DriverTime is
	// the pipeline's wall time minus its rounds' phases, so the master's
	// work between stages counts as driver time.
	Telemetry Telemetry
}

// Biconnectivity computes the BC-labeling of Tarjan–Vishkin (§9,
// Algorithm 12) in O(log log_{T/n} n) rounds w.h.p. and derives bridges,
// articulation points, and 2-edge-connected components from it:
//
//  1. a spanning forest via the AMPC MSF algorithm (Corollary 7.2),
//  2. tree rooting, preorder numbers and subtree sizes via Euler tours and
//     list ranking (§8.1),
//  3. Low(v)/High(v) — subtree extremes of non-tree-edge endpoints — via a
//     DDS-resident sparse table answered in O(1) adaptive reads per vertex
//     (Lemma 8.9),
//  4. the block auxiliary graph: tree edges (named by their child) joined
//     when Low/High prove a shared cycle, plus unrelated-pair non-tree
//     edges — the corrected form of the paper's Equation (1) critical-edge
//     test. Substitution: the paper deletes the critical tree edges and
//     reuses E as the auxiliary edge set, which miscounts non-tree edges
//     between a vertex and its own ancestor (they would join blocks that
//     share no cycle); here only non-tree edges between unrelated vertices
//     join their endpoints' blocks, and ancestor-type ones contribute
//     through Low/High alone,
//  5. connectivity over the auxiliary graph — the paper's Step 5 — using
//     the AMPC connectivity algorithm.
//
// Bridges are singleton blocks; a non-root vertex is an articulation point
// iff it heads a block; the root iff it heads at least two.
func Biconnectivity(ctx context.Context, g *graph.Graph, opts Options) (BiconnResult, error) {
	pl := newPipeline()
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return BiconnResult{}, err
	}
	opts.RetainStore = false // no stage's store is served
	n := g.N()

	// Step 1: spanning forest.
	forestEdges, compLabels, tel, err := SpanningForest(ctx, g, opts)
	if err != nil {
		return BiconnResult{}, err
	}
	pl.add(tel)
	forest := graph.MustGraph(n, forestEdges)

	// Step 2: root each tree at its component representative, then number.
	rootSet := map[int]bool{}
	var roots []int
	for v := 0; v < n; v++ {
		if !rootSet[compLabels[v]] {
			rootSet[compLabels[v]] = true
			roots = append(roots, compLabels[v])
		}
	}
	rf, err := RootForest(ctx, forest, roots, opts)
	if err != nil {
		return BiconnResult{}, err
	}
	pl.add(rf.Telemetry)
	props, err := ComputeTreeProps(rf)
	if err != nil {
		return BiconnResult{}, err
	}

	// Globalize per-tree preorder numbers so every subtree is a contiguous
	// interval of one shared array (an MPC prefix-sum over tree sizes).
	base := make(map[int]int, len(roots))
	offset := 0
	for _, r := range roots {
		base[r] = offset
		offset += props.Size[r]
	}
	gPre := make([]int, n) // 1-based within the global array
	for v := 0; v < n; v++ {
		gPre[v] = base[rf.Root[v]] + props.Pre[v]
	}

	// Step 3: Low/High via a DDS-resident RMQ over preorder positions.
	lowVals := make([]int64, n)
	highVals := make([]int64, n)
	for v := 0; v < n; v++ {
		lo, hi := int64(gPre[v]), int64(gPre[v])
		for _, w := range g.Neighbors(v) {
			if isTreeEdge(forest, v, w) {
				continue
			}
			if int64(gPre[w]) < lo {
				lo = int64(gPre[w])
			}
			if int64(gPre[w]) > hi {
				hi = int64(gPre[w])
			}
		}
		lowVals[gPre[v]-1] = lo
		highVals[gPre[v]-1] = hi
	}
	low, high, tel2, err := subtreeExtremes(ctx, g, lowVals, highVals, gPre, props, opts)
	if err != nil {
		return BiconnResult{}, err
	}
	pl.add(tel2)

	// Step 4: auxiliary block graph on tree-edge children.
	var aux []graph.Edge
	seen := map[graph.Edge]bool{}
	addAux := func(a, b int) {
		e := graph.Edge{U: a, V: b}.Canon()
		if a != b && !seen[e] {
			seen[e] = true
			aux = append(aux, e)
		}
	}
	inInterval := func(pos, v int) bool { // is position pos inside v's subtree interval
		return pos >= gPre[v] && pos <= gPre[v]+props.Size[v]-1
	}
	for v := 0; v < n; v++ {
		u := rf.Parent[v]
		if u == v || rf.Parent[u] == u {
			continue // v is a root, or its parent is: no consecutive pair
		}
		if low[v] < int64(gPre[u]) || high[v] > int64(gPre[u]+props.Size[u]-1) {
			addAux(v, u) // subtree(v) escapes u: shared cycle
		}
	}
	for _, e := range g.Edges() {
		if isTreeEdge(forest, e.U, e.V) {
			continue
		}
		u, w := e.U, e.V
		if rf.Parent[u] == u || rf.Parent[w] == w {
			continue // root endpoints carry no tree-edge name
		}
		if inInterval(gPre[u], w) || inInterval(gPre[w], u) {
			continue // ancestor pairs are chained by the consecutive rule
		}
		addAux(u, w)
	}

	// Step 5: connectivity over the auxiliary graph.
	auxGraph := graph.MustGraph(n, aux)
	conn, err := Connectivity(ctx, auxGraph, opts)
	if err != nil {
		return BiconnResult{}, err
	}
	pl.add(conn.Telemetry)
	blocks := conn.Components

	// Harvest: bridges, articulation points, 2-edge components.
	members := map[int][]int{} // block label -> non-root members
	for v := 0; v < n; v++ {
		if rf.Parent[v] != v {
			members[blocks[v]] = append(members[blocks[v]], v)
		}
	}
	var bridges []graph.Edge
	headCount := map[int]int{}
	for _, vs := range members {
		if len(vs) == 1 {
			bridges = append(bridges, graph.Edge{U: vs[0], V: rf.Parent[vs[0]]}.Canon())
		}
		top := vs[0]
		for _, v := range vs {
			if gPre[v] < gPre[top] {
				top = v
			}
		}
		headCount[rf.Parent[top]]++
	}
	sort.Slice(bridges, func(i, j int) bool {
		if bridges[i].U != bridges[j].U {
			return bridges[i].U < bridges[j].U
		}
		return bridges[i].V < bridges[j].V
	})
	var aps []int
	for v := 0; v < n; v++ {
		c := headCount[v]
		if rf.Parent[v] == v {
			if c >= 2 {
				aps = append(aps, v)
			}
		} else if c >= 1 {
			aps = append(aps, v)
		}
	}

	// 2-edge-connected components: connectivity after deleting bridges.
	bridgeSet := map[graph.Edge]bool{}
	for _, b := range bridges {
		bridgeSet[b] = true
	}
	var kept []graph.Edge
	for _, e := range g.Edges() {
		if !bridgeSet[e] {
			kept = append(kept, e)
		}
	}
	tec, err := Connectivity(ctx, graph.MustGraph(n, kept), opts)
	if err != nil {
		return BiconnResult{}, err
	}
	pl.add(tec.Telemetry)

	return BiconnResult{
		Bridges:            bridges,
		ArticulationPoints: aps,
		TwoEdgeComponents:  tec.Components,
		BlockLabel:         blocks,
		Telemetry:          pl.telemetry(),
	}, nil
}

// subtreeExtremes computes Low(v) = min over v's subtree of the per-vertex
// minima (and the High analogue) with an AMPC round: the sparse table is
// published to the DDS and every machine answers its vertices' interval
// queries in O(1) adaptive reads each.
func subtreeExtremes(cctx context.Context, g *graph.Graph, lowVals, highVals []int64, gPre []int, props *TreeProps, opts Options) ([]int64, []int64, Telemetry, error) {
	n := g.N()
	// The sparse table occupies Θ(n log n) words; the model allows total
	// space O(N polylog N) (§2), so this stage's runtime is provisioned
	// with a log-n-scaled machine pool.
	logN := 1
	for 1<<logN < n+2 {
		logN++
	}
	opts.spaceFactor *= logN
	rt := opts.newRuntime(cctx, n, g.M())
	defer rt.Close()
	if n == 0 {
		return nil, nil, telemetryFrom(rt, 0), nil
	}
	lowT := NewRMQ(lowVals)
	highT := NewRMQ(highVals)
	if err := rt.AddStatic("bc-rmq", append(lowT.EncodeMin(), highT.EncodeMax()...)); err != nil {
		return nil, nil, Telemetry{}, err
	}
	low := make([]int64, n)
	high := make([]int64, n)
	err := rt.Round("bc-extremes", func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, n, ctx.P)
		for v := lo; v < hi; v++ {
			l := gPre[v] - 1
			r := l + props.Size[v] - 1
			lv, err := RMQMinFromStore(ctx, l, r)
			if err != nil {
				return err
			}
			hv, err := RMQMaxFromStore(ctx, l, r)
			if err != nil {
				return err
			}
			ctx.Write(dds.Key{Tag: tagBCLow, A: int64(v)}, dds.Value{A: lv})
			ctx.Write(dds.Key{Tag: tagBCHigh, A: int64(v)}, dds.Value{A: hv})
			low[v] = lv
			high[v] = hv
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, nil, Telemetry{}, err
	}
	return low, high, telemetryFrom(rt, 1), nil
}

func isTreeEdge(forest *graph.Graph, u, v int) bool { return forest.HasEdge(u, v) }
