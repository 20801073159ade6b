package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// DDS tags private to the connectivity and MSF algorithms.
const (
	tagConnDeg   = graph.TagAlgoBase + 20 // (tag, v, 0) -> (degree in Gc, 0)
	tagConnAdj   = graph.TagAlgoBase + 21 // (tag, v, i) -> (neighbor, weight)
	tagConnFound = graph.TagAlgoBase + 22 // (tag, v, i) -> (i-th visited vertex, 0)
	tagConnSize  = graph.TagAlgoBase + 23 // (tag, v, 0) -> (|Fv|, 1 if whole component)
	tagConnLabel = graph.TagAlgoBase + 24 // (tag, v, 0) -> (component label, 0)
	tagMSFEdge   = graph.TagAlgoBase + 25 // (tag, v, i) -> (weight of i-th local MSF edge, 0)
)

// ConnectivityResult reports the outcome and cost of Algorithm 7.
type ConnectivityResult struct {
	// Components labels each vertex with a canonical representative of its
	// connected component.
	Components []int
	// Store is the retained final store holding the labels under the
	// serving tag, populated only when Options.RetainStore was set; query
	// it through NewConnectivityQuery. The caller owns its Close.
	Store dds.StoreBackend
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// Connectivity computes connected components in O(log log_{T/n} n + 1/ε)
// phases w.h.p. (§6, Theorem 3), each phase costing two AMPC rounds. Every
// phase each vertex explores its component via adaptive BFS until it has
// seen d vertices (Algorithm 6, IncreaseDegrees), leaders are sampled with
// probability ~min(1/2, ln n'/d), and every vertex contracts to a leader in
// its explored set; the per-vertex budget d grows as the vertex count n'
// falls, maintaining n'·d² = O(T), which keeps the per-machine query count
// at O(S) (Lemma 6.1).
//
// Sparse-graph note: when m = o(n log² n) the paper preprocesses with the
// MPC algorithm of Lemma 6.2. We instead start the main loop at
// d = sqrt(T/n) < log n with leader probability capped at 1/2; the early
// phases then halve the vertex count just like the preprocessing would,
// costing the same O(log log n) extra phases.
func Connectivity(ctx context.Context, g *graph.Graph, opts Options) (ConnectivityResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ConnectivityResult{}, err
	}
	n := g.N()
	d, err := newFlatDriver(n, false, opts.Workers)
	if err != nil {
		return ConnectivityResult{}, err
	}
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()
	driver := opts.driverRNG(5)

	gc := d.fromGraph(g)
	m2 := make([]int, n) // M: original vertex -> current representative
	for v := range m2 {
		m2[v] = v
	}

	phases, err := connectivityPhases(ctx, rt, d, gc, m2, driver, opts, n, g.M(), 0)
	if err != nil {
		return ConnectivityResult{}, err
	}

	comp := make([]int, n)
	copy(comp, m2)
	res := ConnectivityResult{Components: comp}
	if opts.RetainStore {
		store, err := retainServeStore(rt, comp)
		if err != nil {
			return ConnectivityResult{}, err
		}
		res.Store = store
	}
	res.Telemetry = d.telemetry(rt, phases)
	return res, nil
}

// connectivityPhases drives the contraction loop of §6 from the given
// contracted state until the graph is exhausted, mutating m2 in place, and
// returns the total phase count. Connectivity enters it at phase 0 with the
// materialized input; ConnectivityStream enters at phase 1, having run the
// first phase against the streamed ingest without ever materializing Gc.
func connectivityPhases(ctx context.Context, rt *ampc.Runtime, d *flatDriver, gc *contracted, m2 []int, driver *rng.RNG, opts Options, n, m, phases int) (int, error) {
	totalSpace := float64(opts.spaceFactor * (n + m + 1))
	dCap := math.Pow(float64(n), opts.Epsilon/2)
	maxPhases := 4*int(math.Log2(float64(n+4))) + 16

	for len(gc.verts) > 0 && gc.edges() > 0 {
		if err := ctx.Err(); err != nil {
			return phases, err
		}
		if phases++; phases > maxPhases {
			return phases, fmt.Errorf("core: connectivity failed to converge after %d phases", maxPhases)
		}

		// Small remainder: publish and solve on a single machine, the
		// paper's final step.
		if 1+len(gc.verts)+2*gc.edges() <= rt.Budget()/2 {
			if err := solveLocally(rt, gc, phases); err != nil {
				return phases, err
			}
			if err := d.applyLocalLabels(rt.Store(), gc, m2); err != nil {
				return phases, err
			}
			break
		}

		budget := connExploreBudget(totalSpace, len(gc.verts), dCap)

		if err := publishContracted(rt, gc, phases); err != nil {
			return phases, err
		}
		if err := increaseDegrees(rt, d.shuffled(gc.verts, driver), budget, phases); err != nil {
			return phases, err
		}

		// Leader sampling and contraction (MPC bookkeeping, master side).
		if err := d.pickTargets(rt.Store(), gc.verts, budget, driver, false); err != nil {
			return phases, err
		}
		gc = d.contract(gc, m2)
	}
	return phases, nil
}

// connExploreBudget returns the per-vertex exploration budget d for a phase
// with n' live vertices: sqrt(T/n') capped at n^{ε/2}, at least 2 —
// maintaining n'·d² = O(T) as the paper's Lemma 6.1 requires.
func connExploreBudget(totalSpace float64, nPrime int, dCap float64) int {
	d := int(math.Sqrt(totalSpace / float64(nPrime)))
	if fd := float64(d); fd > dCap {
		d = int(dCap)
	}
	if d < 2 {
		d = 2
	}
	return d
}

// publishContracted writes the current contracted graph to the DDS: the
// first round of each phase. The records form one flat list, block-
// partitioned across machines, so a high-degree contracted vertex cannot
// overload a single writer (the flattening is the usual MPC load-balancing
// shuffle); each machine generates its block straight from the CSR arrays
// into a writer reserved to the block's exact size.
func publishContracted(rt *ampc.Runtime, gc *contracted, phase int) error {
	total := gc.records()
	return rt.Round(fmt.Sprintf("conn-publish-%d", phase), func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, total, ctx.P)
		ctx.GrowWrites(hi - lo)
		gc.writeRecords(ctx, lo, hi)
		return ctx.Err()
	})
}

// increaseDegrees is Algorithm 6: every vertex BFSes its component through
// the DDS until it has visited d vertices (or exhausted the component),
// and records the visited set. The reads are adaptive: each frontier pop
// depends on earlier reads. Per-vertex reads are capped at ~4d²+32, the
// O(d²) of Lemma 6.1. verts is the live vertex list in the phase's shuffled
// order, block-partitioned across machines.
func increaseDegrees(rt *ampc.Runtime, verts []int32, d int, phase int) error {
	return rt.Round(fmt.Sprintf("conn-increase-%d", phase), func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		var out []dds.KV // per-vertex batch, reused across the machine's block
		var st bfsScratch
		for _, v := range verts[lo:hi] {
			found, whole, err := bfsExplore(ctx, &st, int(v), d)
			if err != nil {
				return err
			}
			w := int64(0)
			if whole {
				w = 1
			}
			out = append(out[:0], dds.KV{
				Key:   dds.Key{Tag: tagConnSize, A: int64(v)},
				Value: dds.Value{A: int64(len(found)), B: w},
			})
			for i, x := range found {
				out = append(out, dds.KV{
					Key:   dds.Key{Tag: tagConnFound, A: int64(v), B: int64(i)},
					Value: dds.Value{A: int64(x)},
				})
			}
			ctx.WriteMany(out)
		}
		return ctx.Err()
	})
}

// bfsScratch holds one machine's BFS working set, reused across the
// vertices of its block: the visited set, v plus order, stays small (d+1 at
// most), so emptying it between vertices is far cheaper than growing a fresh
// set and four slices per explored vertex.
type bfsScratch struct {
	visited vertexSet
	order   []int
	queue   []int
	keys    []dds.Key
	vals    []ampc.ValueOK
}

// vertexSet is the visited set of one BFS at a time: a linear-probing table
// of id+1 words (0 is empty), at least twice its members.
type vertexSet []uint64

// reset empties the set and sizes it for up to n members.
func (s *vertexSet) reset(n int) {
	if len(*s) < 2*n {
		*s = make(vertexSet, 1<<bits.Len(uint(2*n-1)))
	}
	clear(*s)
}

// add inserts v and reports whether it was absent.
func (s vertexSet) add(v int) bool {
	w, mask := uint64(v)+1, uint64(len(s)-1)
	for i := w * 0x9E3779B97F4A7C15 >> 32 & mask; s[i] != w; i = (i + 1) & mask {
		if s[i] == 0 {
			s[i] = w
			return true
		}
	}
	return false
}

// bfsExplore runs the budgeted BFS from v, returning the visited vertices
// (excluding v) and whether the whole component was exhausted. Adjacency
// lists are pulled through the batched ReadMany API in blocks bounded by
// the per-vertex read cap — the O(d²) of Lemma 6.1, which counts every key
// — and by the remaining exploration capacity, so a block never charges
// more than the sequential probe order could still have needed. The
// returned slice aliases st.order and is valid until the next call with
// the same scratch.
func bfsExplore(ctx *ampc.Ctx, st *bfsScratch, v, d int) ([]int, bool, error) {
	const block = 64
	readCap := 2*d*d + 32
	reads := 0

	visited := &st.visited
	visited.reset(d + 1)
	visited.add(v)
	order := st.order[:0]
	queue := append(st.queue[:0], v)
	whole := true
	keys := st.keys
	vals := st.vals
	qi := 0
	for qi < len(queue) && len(order) < d {
		x := queue[qi]
		qi++
		if reads >= readCap {
			whole = false
			break
		}
		reads++
		deg, ok := ctx.Read(dds.Key{Tag: tagConnDeg, A: int64(x)})
		if !ok {
			return nil, false, fmt.Errorf("core: missing degree for %d (err %v)", x, ctx.Err())
		}
		n := int(deg.A)
		for i := 0; i < n && whole; {
			if len(order) >= d || reads >= readCap {
				whole = false
				break
			}
			batch := n - i
			if batch > block {
				batch = block
			}
			if rem := readCap - reads; batch > rem {
				batch = rem
			}
			// Each unvisited entry grows the visited set, so the remaining
			// capacity bounds how many entries can still be useful.
			room := d - len(order)
			if batch > room {
				batch = room
			}
			keys = keys[:0]
			for t := 0; t < batch; t++ {
				keys = append(keys, dds.Key{Tag: tagConnAdj, A: int64(x), B: int64(i + t)})
			}
			vals = ctx.ReadMany(keys, vals[:0])
			reads += batch
			for t, a := range vals {
				if !a.OK {
					return nil, false, fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", x, i+t, ctx.Err())
				}
				// An entry encountered while the visited set is already full
				// may be a vertex we will never explore: the exploration is
				// no longer provably whole.
				if len(order) >= d {
					whole = false
					break
				}
				u := int(a.Value.A)
				if visited.add(u) {
					order = append(order, u)
					queue = append(queue, u)
				}
			}
			i += batch
		}
		if !whole || reads >= readCap {
			whole = false
			break
		}
	}
	if qi < len(queue) {
		whole = false
	}
	st.order, st.queue, st.keys, st.vals = order, queue, keys, vals
	return order, whole, nil
}

// readAdjacency streams vertex v's n adjacency records through the batched
// read API in blocks, invoking f for every (index, value) in order.
func readAdjacency(ctx *ampc.Ctx, v, n int, f func(i int, a dds.Value) error) error {
	const block = 128
	var keys [block]dds.Key
	var vals []ampc.ValueOK
	for i := 0; i < n; i += block {
		b := n - i
		if b > block {
			b = block
		}
		for t := 0; t < b; t++ {
			keys[t] = dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(i + t)}
		}
		vals = ctx.ReadMany(keys[:b], vals[:0])
		for t, a := range vals {
			if !a.OK {
				return fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", v, i+t, ctx.Err())
			}
			if err := f(i+t, a.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// solveLocally publishes the remaining graph and has machine 0 label it in
// one round — the "fits on a single machine" final step.
func solveLocally(rt *ampc.Runtime, gc *contracted, phase int) error {
	if err := publishContracted(rt, gc, phase*1000); err != nil {
		return err
	}
	verts := gc.verts
	return rt.Round(fmt.Sprintf("conn-local-%d", phase), func(ctx *ampc.Ctx) error {
		if ctx.Machine != 0 {
			return nil
		}
		// Machine 0 reads the whole remainder and runs a local union-find
		// over positions in verts (ascending, so ids resolve by search).
		dsu := graph.NewDSU(len(verts))
		for i, v := range verts {
			deg, ok := ctx.Read(dds.Key{Tag: tagConnDeg, A: int64(v)})
			if !ok {
				return fmt.Errorf("core: local solve missing degree for %d (err %v)", v, ctx.Err())
			}
			err := readAdjacency(ctx, int(v), int(deg.A), func(_ int, a dds.Value) error {
				j, _ := slices.BinarySearch(verts, int32(a.A))
				dsu.Union(i, j)
				return nil
			})
			if err != nil {
				return err
			}
		}
		// Canonical label: minimum vertex id per root — the first member met
		// in ascending order.
		minOf := make([]int32, len(verts))
		for i := range minOf {
			minOf[i] = -1
		}
		labels := make([]dds.KV, 0, len(verts))
		for i, v := range verts {
			r := dsu.Find(i)
			if minOf[r] < 0 {
				minOf[r] = v
			}
			labels = append(labels, dds.KV{
				Key:   dds.Key{Tag: tagConnLabel, A: int64(v)},
				Value: dds.Value{A: int64(minOf[r])},
			})
		}
		ctx.WriteMany(labels)
		return ctx.Err()
	})
}

// applyLocalLabels folds the local-solve labels into the original->current
// map: the labels are one more contraction map.
func (d *flatDriver) applyLocalLabels(store dds.StoreBackend, gc *contracted, m2 []int) error {
	defer since(&d.times.readback, time.Now())
	target := d.target
	err := d.rb.perVertex(store, tagConnLabel, "label", gc.verts, func(i int, l dds.Value) {
		target[gc.verts[i]] = int32(l.A)
	})
	if err != nil {
		return err
	}
	d.relabel(m2)
	d.restoreTargets(gc.verts)
	return nil
}

// rngShuffler is the minimal driver-RNG interface the phase helpers need.
type rngShuffler interface {
	Shuffle(n int, swap func(i, j int))
	Bernoulli(p float64) bool
	Perm(n int) []int
}
