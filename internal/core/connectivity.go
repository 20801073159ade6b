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
	// serving tag, populated only when Options.RetainStore was set: v's
	// label is Get(ServeKey(v)). The caller owns its Close.
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

	m2 := identityMap(n) // M: original vertex -> current representative
	phases, err := d.runPhases(ctx, rt, increaseDegrees, d.fromGraph(g), m2, opts.driverRNG(5), opts, n, g.M(), 0)
	if err != nil {
		return ConnectivityResult{}, err
	}
	return d.connectivityResult(rt, m2, phases, opts.RetainStore)
}

// connectivityResult reports a finished connectivity run: m2 holds the
// component labels.
func (d *flatDriver) connectivityResult(rt *ampc.Runtime, m2 []int, phases int, retain bool) (ConnectivityResult, error) {
	res := ConnectivityResult{Components: m2}
	if retain {
		store, err := retainServeStore(rt, m2)
		if err != nil {
			return ConnectivityResult{}, err
		}
		res.Store = store
	}
	res.Telemetry = d.telemetry(rt, phases)
	return res, nil
}

// identityMap returns the identity map on [0, n): every original vertex its
// own representative.
func identityMap(n int) []int {
	m := make([]int, n)
	for v := range m {
		m[v] = v
	}
	return m
}

// exploreRound is a phase's exploration round: every vertex of verts, in
// that order and block-partitioned across machines, explores up to d
// vertices and records what it found — Algorithm 6's BFS (increaseDegrees)
// or Algorithm 8's Prim growth (msfIncreaseDegree).
type exploreRound func(rt *ampc.Runtime, verts []int32, d int, phase int) error

// runPhases is the contraction loop that Connectivity (§6, Algorithm 7),
// ConnectivityStream and MSF (§7, Algorithm 9) share, differing only in
// explore. From the given contracted state until the graph is exhausted,
// each phase publishes Gc, explores, samples leaders and contracts; a
// remainder small enough for one machine is solved there. It mutates m2,
// the original -> current vertex map, in place (MSF, which reads its
// output from the committed weights, passes nil) and returns the total
// phase count. Connectivity and MSF enter at phase 0 with the materialized
// input; ConnectivityStream enters at phase 1, having run the first phase
// against the streamed ingest without ever materializing Gc.
func (d *flatDriver) runPhases(ctx context.Context, rt *ampc.Runtime, explore exploreRound, gc *contracted, m2 []int, driver *rng.RNG, opts Options, n, m, phases int) (int, error) {
	totalSpace := float64(opts.spaceFactor * (n + m + 1))
	dCap := math.Pow(float64(n), opts.Epsilon/2)
	maxPhases := 4*int(math.Log2(float64(n+4))) + 16

	for len(gc.verts) > 0 && gc.edges() > 0 {
		if err := ctx.Err(); err != nil {
			return phases, err
		}
		if phases++; phases > maxPhases {
			return phases, fmt.Errorf("core: contraction failed to converge after %d phases", maxPhases)
		}

		// Small remainder: publish and solve on a single machine, the
		// paper's final step.
		if 1+len(gc.verts)+2*gc.edges() <= rt.Budget()/2 {
			return phases, d.solveLocally(rt, gc, m2, phases)
		}

		budget := connExploreBudget(totalSpace, len(gc.verts), dCap)

		if err := publishContracted(rt, gc, phases); err != nil {
			return phases, err
		}
		if err := explore(rt, d.shuffled(gc.verts, driver), budget, phases); err != nil {
			return phases, err
		}

		// Leader sampling and contraction (MPC bookkeeping, master side).
		if err := d.pickTargets(rt.Store(), gc.verts, budget, driver); err != nil {
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
// depends on earlier reads. Per-vertex reads are capped at 2d²+32, the
// O(d²) of Lemma 6.1. verts is the live vertex list in the phase's shuffled
// order, block-partitioned across machines.
//
// A machine runs its block's explorations in lock-step (blockBFS), so its
// chain of dependent reads is that of its longest exploration, not the sum
// over its block. Each exploration reads the keys it would read alone, so
// the machine's charged set, its records and their order are unchanged.
// A lane's machines hand their state on through free, so an in-process
// round allocates it per lane, not per machine.
func increaseDegrees(rt *ampc.Runtime, verts []int32, d int, phase int) error {
	free := make(chan *blockBFS, rt.Config().Workers)
	return rt.Round(fmt.Sprintf("conn-increase-%d", phase), func(ctx *ampc.Ctx) error {
		lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
		var b *blockBFS
		select {
		case b = <-free:
		default:
			b = new(blockBFS)
		}
		b.reset(verts[lo:hi], d)
		if err := b.run(ctx); err != nil {
			return err
		}
		b.write(ctx)
		select {
		case free <- b:
		default:
		}
		return ctx.Err()
	})
}

// readBlock caps the keys of one read, an adjacency block or a lock-step
// step: all P lanes of a remote round hold that much read scratch at once.
const readBlock = 64

// explorer is one vertex's budgeted BFS, suspended between reads. Its queue
// is always [v] ++ order, so one window of d+1 vertices holds both: the
// window's first n entries are the queue, and qi is the next to pop.
type explorer struct {
	n, qi  int32 // window fill and queue position
	deg, i int32 // the popped vertex's degree (-1 until read), next adjacency index
	want   int32 // keys of the pending read; 0 once finished
	whole  bool
	reads  int // keys read, against readCap
}

// blockBFS is one machine's explorations, run in lock-step: each step
// issues every unfinished exploration's pending read (in block order, up to
// readBlock keys) as one ReadMany and feeds each its values. Its state is
// O(block · d) int32 words, kept for the lane's next machine.
type blockBFS struct {
	d, w    int32 // the budget and a window's width, d+1
	readCap int
	ex      []explorer
	win     []int32 // exploration i's window is win[i·w : i·w+w]; seen follows
	seen    []int32 // the visited sets: open addressing over 1 + a window position
	keys    []dds.Key
	vals    []ampc.ValueOK
	out     []dds.KV
}

// reset starts the explorations of block with budget d.
func (b *blockBFS) reset(block []int32, d int) {
	w := d + 1
	nw := len(block) * w
	b.d, b.w, b.readCap = int32(d), int32(w), 2*d*d+32
	b.ex = resized(b.ex, len(block))
	b.win = resized(b.win, nw+1<<bits.Len(uint(nw+nw/2)))
	clear(b.ex)
	clear(b.win)
	b.seen = b.win[nw:]
	for i, v := range block {
		b.ex[i].whole = true
		b.visit(i, v)
		b.ex[i].want = b.next(&b.ex[i])
	}
}

// visit adds u to exploration i's window unless it is there already. The
// block's visited sets share one table whose slots hold 1 + u's window
// position, so a member is matched by its window and its id.
func (b *blockBFS) visit(i int, u int32) {
	e := &b.ex[i]
	lo := int32(i) * b.w
	mask := uint64(len(b.seen) - 1)
	for j := (uint64(uint32(u))<<32 | uint64(i)) * 0x9E3779B97F4A7C15 >> 32 & mask; ; j = (j + 1) & mask {
		p := b.seen[j] - 1
		if p < 0 {
			b.seen[j] = lo + e.n + 1
			b.win[lo+e.n] = u
			e.n++
			return
		}
		if p >= lo && p < lo+b.w && b.win[p] == u {
			return
		}
	}
}

// next runs e's BFS up to its next read and returns that read's key count,
// 0 once the exploration is over: the budgeted BFS's control flow (the
// tests keep it whole as bfsExplore), cut at each read.
func (b *blockBFS) next(e *explorer) int32 {
	switch {
	case !e.whole:
		return 0
	case e.i < e.deg && e.n <= b.d && e.reads < b.readCap: // the popped vertex's next adjacency block
		k := int32(min(int(min(e.deg-e.i, readBlock, b.d-e.n+1)), b.readCap-e.reads))
		e.reads += int(k)
		return k
	case e.i < e.deg || e.reads >= b.readCap: // a full visited set, or the read cap, cuts it short
		e.whole = false
		return 0
	case e.qi < e.n && e.n <= b.d: // pop, and read the degree
		e.qi++
		e.deg, e.i = -1, 0
		e.reads++
		return 1
	}
	e.whole = e.qi == e.n // an exhausted queue is the whole component
	return 0
}

// run drives the block's explorations to their end, one ReadMany a step.
func (b *blockBFS) run(ctx *ampc.Ctx) error {
	for lo := 0; ; {
		for lo < len(b.ex) && b.ex[lo].want == 0 {
			lo++
		}
		hi := lo
		b.keys = b.keys[:0]
		for ; hi < len(b.ex) && (hi == lo || len(b.keys)+int(b.ex[hi].want) <= readBlock); hi++ {
			e := &b.ex[hi]
			v := int64(b.win[int32(hi)*b.w+e.qi-1]) // the popped vertex
			if e.deg < 0 {
				b.keys = append(b.keys, dds.Key{Tag: tagConnDeg, A: v})
				continue
			}
			for t := int32(0); t < e.want; t++ {
				b.keys = append(b.keys, dds.Key{Tag: tagConnAdj, A: v, B: int64(e.i + t)})
			}
		}
		if len(b.keys) == 0 {
			return nil
		}
		b.vals = ctx.ReadMany(b.keys, b.vals[:0])
		vals := b.vals
		for i := lo; i < hi; i++ {
			k := b.ex[i].want
			if err := b.feed(ctx, i, vals[:k]); err != nil {
				return err
			}
			vals = vals[k:]
		}
	}
}

// feed hands exploration i the values of its pending read and moves it on
// to its next one. A finished exploration gets no values and stays put.
func (b *blockBFS) feed(ctx *ampc.Ctx, i int, vals []ampc.ValueOK) error {
	e := &b.ex[i]
	v := b.win[int32(i)*b.w+e.qi-1]
	if e.deg < 0 {
		if !vals[0].OK {
			return fmt.Errorf("core: missing degree for %d (err %v)", v, ctx.Err())
		}
		e.deg = int32(vals[0].Value.A)
	} else {
		for t, a := range vals {
			if !a.OK {
				return fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", v, int(e.i)+t, ctx.Err())
			}
			b.visit(i, int32(a.Value.A)) // a block never outgrows the window: next sizes it to the room
		}
		e.i += int32(len(vals))
	}
	e.want = b.next(e)
	return nil
}

// write emits every exploration's records in block order: its size and
// whole flag, then its visited vertices in visit order.
func (b *blockBFS) write(ctx *ampc.Ctx) {
	for i := range b.ex {
		e := &b.ex[i]
		win := b.win[int32(i)*b.w : int32(i)*b.w+e.n]
		v, whole := int64(win[0]), int64(0)
		if e.whole {
			whole = 1
		}
		b.out = append(b.out[:0], dds.KV{
			Key:   dds.Key{Tag: tagConnSize, A: v},
			Value: dds.Value{A: int64(len(win) - 1), B: whole},
		})
		for j, u := range win[1:] {
			b.out = append(b.out, dds.KV{
				Key:   dds.Key{Tag: tagConnFound, A: v, B: int64(j)},
				Value: dds.Value{A: int64(u)},
			})
		}
		ctx.WriteMany(b.out)
	}
}

// solveLocally publishes the remainder and has machine 0 finish it in one
// round — the "fits on a single machine" final step: connectivity labels
// it through a union-find, MSF runs Kruskal over it.
func (d *flatDriver) solveLocally(rt *ampc.Runtime, gc *contracted, m2 []int, phase int) error {
	if err := publishContracted(rt, gc, phase*1000); err != nil {
		return err
	}
	verts := gc.verts
	name := "conn-local-%d"
	if d.weighted {
		name = "msf-local-%d"
	}
	err := rt.Round(fmt.Sprintf(name, phase), func(ctx *ampc.Ctx) error {
		if ctx.Machine != 0 {
			return nil
		}
		offs, to, w, err := readRemainder(ctx, verts)
		if err != nil {
			return err
		}
		if d.weighted {
			ctx.WriteMany(kruskal(offs, to, w))
		} else {
			ctx.WriteMany(labelRemainder(verts, offs, to))
		}
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	if d.weighted {
		return d.readCommitted(rt.Store())
	}
	return d.applyLocalLabels(rt.Store(), gc, m2)
}

// readRemainder is machine 0's read of the published remainder: every
// degree in one ReadMany, then every adjacency record in one more, so the
// local solve is two dependent reads, not a chain per vertex. The
// remainder fits in Budget/2 words, so its keys and values stay O(S). It
// returns vertex i's adjacency as positions in verts (ascending, so ids
// resolve by search) to[offs[i]:offs[i+1]] with the weights w alongside.
func readRemainder(ctx *ampc.Ctx, verts []int32) (offs []int, to []int32, w []int64, err error) {
	keys := make([]dds.Key, len(verts))
	for i, v := range verts {
		keys[i] = dds.Key{Tag: tagConnDeg, A: int64(v)}
	}
	vals := ctx.ReadMany(keys, nil)
	offs = make([]int, len(verts)+1)
	for i, deg := range vals {
		if !deg.OK {
			return nil, nil, nil, fmt.Errorf("core: local solve missing degree for %d (err %v)", verts[i], ctx.Err())
		}
		offs[i+1] = offs[i] + int(deg.Value.A)
	}
	keys = keys[:0]
	for i, v := range verts {
		for j := range offs[i+1] - offs[i] {
			keys = append(keys, dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(j)})
		}
	}
	vals = ctx.ReadMany(keys, vals[:0])
	to, w = make([]int32, len(vals)), make([]int64, len(vals))
	for e, a := range vals {
		if !a.OK {
			return nil, nil, nil, fmt.Errorf("core: missing adjacency (%d,%d) (err %v)", keys[e].A, keys[e].B, ctx.Err())
		}
		j, _ := slices.BinarySearch(verts, int32(a.Value.A))
		to[e], w[e] = int32(j), a.Value.B
	}
	return offs, to, w, nil
}

// labelRemainder labels the remainder through a union-find over positions
// in verts: each vertex gets its component's minimum id, the first member
// met in ascending order.
func labelRemainder(verts []int32, offs []int, to []int32) []dds.KV {
	dsu := graph.NewDSU(len(verts))
	for i := range verts {
		for _, j := range to[offs[i]:offs[i+1]] {
			dsu.Union(i, int(j))
		}
	}
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
	return labels
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
