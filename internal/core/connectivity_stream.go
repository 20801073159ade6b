package core

import (
	"context"
	"math"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// ConnectivityStream computes connected components over a streamed edge
// producer: the out-of-core entry point. The input graph is never
// materialized as an edge list — ingest streams each edge's two adjacency
// records straight into the primed store builder, and the first contraction
// phase replays the stream against the contraction map — so driver memory
// is O(n + contracted graph), not O(m). From the second phase on the
// contracted graph fits the materialized loop and the run proceeds exactly
// as Connectivity. The stream must be replayable (graph.EdgeStream).
//
// Duplicate edges are accepted (connectivity is multigraph-insensitive);
// the budgeted BFS of Algorithm 6 dedups through its visited set.
func ConnectivityStream(ctx context.Context, es graph.EdgeStream, opts Options) (ConnectivityResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ConnectivityResult{}, err
	}
	n, m := es.N(), es.M()
	d, err := newFlatDriver(n, false, opts.Workers)
	if err != nil {
		return ConnectivityResult{}, err
	}
	rt := opts.newRuntime(ctx, n, m)
	defer rt.Close()
	driver := opts.driverRNG(5)

	// Pass 1: degrees. O(n) driver state, one stream replay.
	ingestStart := time.Now()
	deg := make([]int32, n)
	es.Each(func(u, v int) {
		deg[u]++
		deg[v]++
	})
	verts := make([]int32, 0, n)
	for v, dv := range deg {
		if dv > 0 {
			verts = append(verts, int32(v))
		}
	}
	d.times.ingest += time.Since(ingestStart)

	m2 := identityMap(n) // M: original vertex -> current representative

	gc := &contracted{}
	phases := 0
	switch {
	case m == 0:
		// Every vertex is isolated; the phase loop exits immediately.
	case 1+len(verts)+2*m <= rt.Budget()/2:
		// The whole input fits one machine's budget: materialize it as the
		// contracted form (the identity contraction dedups the multigraph)
		// and let the phase loop solve it locally, exactly as Connectivity
		// would.
		gc = d.contractStream(es, nil, m2)
	default:
		streamIngest(rt, d, es, deg, verts)
		phases = 1
		totalSpace := float64(opts.spaceFactor * (n + m + 1))
		budget := connExploreBudget(totalSpace, len(verts), math.Pow(float64(n), opts.Epsilon/2))
		if err := increaseDegrees(rt, d.shuffled(verts, driver), budget, phases); err != nil {
			return ConnectivityResult{}, err
		}
		if err := d.pickTargets(rt.Store(), verts, budget, driver); err != nil {
			return ConnectivityResult{}, err
		}
		gc = d.contractStream(es, verts, m2)
	}

	phases, err = d.runPhases(ctx, rt, increaseDegrees, gc, m2, driver, opts, n, m, phases)
	if err != nil {
		return ConnectivityResult{}, err
	}
	return d.connectivityResult(rt, m2, phases, opts.RetainStore)
}

// streamIngest publishes the streamed graph as D0 without materializing any
// record list: the deg records for all live vertices, then both adjacency
// records of every streamed edge, are written to the builder in emission
// order and block-partitioned over the P machines by record ordinal —
// the same balanced layout publishContracted produces for materialized
// graphs, so a high-degree vertex cannot overload one writer. The per-edge
// adjacency index is tracked with O(n) cursors; nothing here is O(m).
func streamIngest(rt *ampc.Runtime, d *flatDriver, es graph.EdgeStream, deg []int32, verts []int32) {
	defer since(&d.times.ingest, time.Now())
	p := rt.Config().P
	total := len(verts) + 2*es.M()
	block := (total + p - 1) / p
	if block < 1 {
		block = 1
	}
	rt.SetInputStream(func(writer func(machine int) *dds.Writer) {
		var w *dds.Writer
		cur := -1
		ord := 0
		put := func(k dds.Key, v dds.Value) {
			mach := ord / block
			if mach >= p {
				mach = p - 1
			}
			if mach != cur {
				// Strictly ascending: each machine's writer is fetched
				// exactly once (a refetch would discard its records), and
				// reserved to the block it is about to receive.
				cur = mach
				w = writer(mach)
				w.Grow(min(block, total-ord))
			}
			w.Write(k, v)
			ord++
		}
		for _, v := range verts {
			put(dds.Key{Tag: tagConnDeg, A: int64(v)}, dds.Value{A: int64(deg[v])})
		}
		cursor := make([]int32, len(deg))
		es.Each(func(u, v int) {
			put(dds.Key{Tag: tagConnAdj, A: int64(u), B: int64(cursor[u])}, dds.Value{A: int64(v)})
			cursor[u]++
			put(dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(cursor[v])}, dds.Value{A: int64(u)})
			cursor[v]++
		})
	})
}

// ConnectivityStreamCheck verifies a streamed connectivity labeling against
// a sequential union-find replay of the stream: same-component vertices
// must share labels, distinct components must not, and every label must be
// a member of its component. It is the oracle the engine's check hook and
// the differential tests use for workloads too large to materialize.
func ConnectivityStreamCheck(es graph.EdgeStream, comp []int) bool {
	n := es.N()
	if len(comp) != n {
		return false
	}
	dsu := graph.NewDSU(n)
	es.Each(func(u, v int) { dsu.Union(u, v) })
	// Labels must be constant on components and distinct across them:
	// map each root to the label of its first-seen member.
	lab := make(map[int]int, 64)
	for v := 0; v < n; v++ {
		r := dsu.Find(v)
		if l, ok := lab[r]; ok {
			if comp[v] != l {
				return false
			}
		} else {
			lab[r] = comp[v]
		}
		// The label itself must sit in the same component.
		if comp[v] < 0 || comp[v] >= n || dsu.Find(comp[v]) != r {
			return false
		}
	}
	// Distinctness across roots follows from the membership check: a label
	// shared by two roots would have to sit in both components.
	return true
}
