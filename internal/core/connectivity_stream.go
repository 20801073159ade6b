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
// materialized as an edge list — ingest freezes each edge's two adjacency
// records straight from the stream into D0, and the first contraction
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
// record list: the deg records of the live vertices, then both adjacency
// records of every streamed edge in stream order, frozen from an emitter
// that replays the stream (ampc.Runtime.SetInputStream), so no record is
// buffered in a writer either. The input is not a round, so no machine is
// charged for it. An emitter call replays the whole stream, which has no
// seek: a freeze of W tasks replays it 2W times, W for its sizing pass's
// ranges and once per insert task. Each call tracks the per-edge adjacency
// index with its own O(n) cursor array; nothing here is O(m).
func streamIngest(rt *ampc.Runtime, d *flatDriver, es graph.EdgeStream, deg []int32, verts []int32) {
	defer since(&d.times.ingest, time.Now())
	rt.SetInputStream(len(verts)+2*es.M(), func(w dds.RecordWriter, lo, hi int) {
		for ord := lo; ord < min(hi, len(verts)); ord++ {
			v := verts[ord]
			w.Write(dds.Key{Tag: tagConnDeg, A: int64(v)}, dds.Value{A: int64(deg[v])})
		}
		if hi <= len(verts) {
			return
		}
		// The stream replays from its start: records before lo only advance
		// the cursors.
		cursor := make([]int32, len(deg))
		ord := len(verts)
		es.Each(func(u, v int) {
			if ord >= lo && ord < hi {
				w.Write(dds.Key{Tag: tagConnAdj, A: int64(u), B: int64(cursor[u])}, dds.Value{A: int64(v)})
			}
			if ord+1 >= lo && ord+1 < hi {
				w.Write(dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(cursor[v])}, dds.Value{A: int64(u)})
			}
			cursor[u]++
			cursor[v]++
			ord += 2
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
