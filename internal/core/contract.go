package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// contracted is the driver-side view of the current contracted graph Gc in
// CSR form: the live vertices in ascending id order, and for verts[i] the
// adjacency run to[offs[i]:offs[i+1]] — id-sorted for connectivity (w nil),
// ordered by (weight, id) with the parallel weights in w for MSF and
// affinity, whose lazy Prim and pick rounds read each list cheapest-first.
// Every live vertex has at least one edge: a vertex that loses its last
// edge drops out, its label final. Maintaining Gc (contraction bookkeeping,
// relabeling, deduplication) uses only standard MPC primitives, which the
// paper accounts inside each phase's O(1) rounds; the AMPC-specific work —
// the adaptive neighborhood exploration — runs on the runtime.
type contracted struct {
	verts []int32
	offs  []int // len(verts)+1
	to    []int32
	w     []int64
}

// edges returns the number of undirected edges of Gc.
func (gc *contracted) edges() int { return len(gc.to) / 2 }

// records returns the length of Gc's flattened record list: one degree
// record per live vertex plus one record per directed edge.
func (gc *contracted) records() int { return len(gc.verts) + len(gc.to) }

func (gc *contracted) reset() {
	gc.verts, gc.offs, gc.to, gc.w = gc.verts[:0], gc.offs[:0], gc.to[:0], gc.w[:0]
}

// emit writes records [lo, hi) of the flattened record list — per live
// vertex, in order, its degree record followed by its adjacency records — so
// vertex i's degree record has ordinal i+offs[i] and any block is generated
// straight from the CSR arrays. It is the list's dds.Emitter.
func (gc *contracted) emit(w dds.RecordWriter, lo, hi int) {
	if lo >= hi {
		return
	}
	// The vertex whose records cover ordinal lo: the last i with
	// i+offs[i] <= lo.
	i := sort.Search(len(gc.verts), func(i int) bool { return i+gc.offs[i] > lo }) - 1
	for ord := lo; ord < hi; i++ {
		v := int64(gc.verts[i])
		first, deg := gc.offs[i], gc.offs[i+1]-gc.offs[i]
		if ord == i+first {
			w.Write(dds.Key{Tag: tagConnDeg, A: v}, dds.Value{A: int64(deg)})
			ord++
		}
		for j := ord - (i + first) - 1; j < deg && ord < hi; j++ {
			val := dds.Value{A: int64(gc.to[first+j])}
			if gc.w != nil {
				val.B = gc.w[first+j]
			}
			w.Write(dds.Key{Tag: tagConnAdj, A: v, B: int64(j)}, val)
			ord++
		}
	}
}

// wrec is one directed weighted edge of a contraction in flight: the packed
// endpoint pair and its weight.
type wrec struct {
	key uint64 // from<<32 | to
	w   int64
}

// resized returns s with length n, reusing its array when that is large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func pack(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// driverTimes splits the driver's own wall-clock time — what a run spends
// between rounds, outside every execute/freeze/publish timer — by sub-phase.
type driverTimes struct {
	contract, readback, ingest time.Duration
}

// stamp returns t with its driver sub-phases set to dt.
func (dt driverTimes) stamp(t Telemetry) Telemetry {
	t.DriverContractTime, t.DriverReadbackTime, t.DriverIngestTime = dt.contract, dt.readback, dt.ingest
	return t
}

// since adds the time elapsed from start to acc; deferred around a sub-phase
// as since(&d.times.x, time.Now()).
func since(acc *time.Duration, start time.Time) { *acc += time.Since(start) }

// flatDriver is the master's working set for the contraction algorithms
// (connectivity, its streamed variant, MSF, affinity): the dense
// vertex-indexed contraction maps, the sort buffers contraction runs in, the
// two CSR buffers Gc alternates between, and the read-back buffers. All of
// it is allocated once per run and reused by every phase, so a phase costs
// no allocation proportional to the live graph. Its edge mapping, counting
// sorts and read-back are striped over the run's Options.Workers goroutines.
type flatDriver struct {
	weighted bool

	// target is the phase's contraction map and leader its sampled leader
	// set. Between phases target is the identity and leader all false: each
	// phase touches only its live vertices and restores them.
	target []int32
	leader []bool

	// keys holds an unweighted contraction's packed directed edges, which
	// sortKeys orders through sorted (as long as keys) and counts (n each).
	keys   []uint64
	sorted []uint64
	counts [][]int32
	recs   []wrec // weighted contraction: directed edges with weights
	parts  []part // per contract stripe: where its edges went, how many
	bufs   [2]contracted

	// compactAt is how many records a streamed contraction collects before
	// it first sorts and dedups them in place (streamCompactAt; tests
	// lower it); limit is the threshold in flight. collect is collectEdge,
	// bound once so a replay allocates nothing.
	compactAt, limit int
	collect          func(u, v int)

	order []int32 // the phase's shuffled exploration order

	// Read-back of an increase round: vertex i of the live list explored
	// found[off[i]:off[i+1]], whole[i] reports a fully explored component.
	off   []int
	whole []bool
	found []int32
	rb    readback

	// committed collects MSF's edge weights, with repeats: every phase's
	// local-tree edges and the local solve's Kruskal edges.
	committed []int64

	times driverTimes
}

// streamCompactAt is the record count (32 MiB of packed pairs) at which a
// streamed contraction starts deduplicating as it collects.
const streamCompactAt = 1 << 22

// newFlatDriver sizes the dense maps for vertex ids in [0, n). Ids are
// packed two to a 64-bit sort key, so n must fit 31 bits. workers is the
// run's Options.Workers: the driver stripes over as many goroutines.
func newFlatDriver(n int, weighted bool, workers int) (*flatDriver, error) {
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d vertices exceed the driver's 2^31-1 vertex id range", ErrInvalidOptions, n)
	}
	d := &flatDriver{
		weighted:  weighted,
		target:    make([]int32, n),
		leader:    make([]bool, n),
		rb:        newReadback(workers),
		compactAt: streamCompactAt,
	}
	for v := range d.target {
		d.target[v] = int32(v)
	}
	return d, nil
}

// telemetry is telemetryFrom plus the driver's sub-phase split.
func (d *flatDriver) telemetry(rt *ampc.Runtime, phases int) Telemetry {
	return d.times.stamp(telemetryFrom(rt, phases))
}

// fromGraph builds the initial Gc of an unweighted graph: a straight copy
// of its CSR arrays minus the isolated vertices.
func (d *flatDriver) fromGraph(g *graph.Graph) *contracted {
	defer since(&d.times.ingest, time.Now())
	gc := &d.bufs[0]
	gc.reset()
	gc.to = slices.Grow(gc.to, 2*g.M())
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) == 0 {
			continue
		}
		gc.verts = append(gc.verts, int32(v))
		gc.offs = append(gc.offs, len(gc.to))
		for _, u := range g.Neighbors(v) {
			gc.to = append(gc.to, int32(u))
		}
	}
	gc.offs = append(gc.offs, len(gc.to))
	return gc
}

// fromWeighted builds the initial Gc of a weighted graph by running its
// edges through the contraction routine under the identity map, which
// leaves every adjacency list ordered cheapest-first.
func (d *flatDriver) fromWeighted(edges []graph.WeightedEdge) *contracted {
	defer since(&d.times.ingest, time.Now())
	d.recs = slices.Grow(d.recs[:0], 2*len(edges))
	for _, e := range edges {
		u, v := int32(e.U), int32(e.V)
		d.recs = append(d.recs, wrec{pack(u, v), e.Weight}, wrec{pack(v, u), e.Weight})
	}
	return d.build(&d.bufs[0])
}

// relabel applies the phase's contraction map to the original->current map
// m2. One hop suffices: a non-leader's target is a leader, which maps to
// itself; the min-id target of a fully explored component maps to itself
// likewise; and target is the identity on vertices that already dropped out.
func (d *flatDriver) relabel(m2 []int) {
	target := d.target
	for v, cur := range m2 {
		m2[v] = int(target[cur])
	}
}

// restoreTargets returns target to the identity on the given live vertices.
func (d *flatDriver) restoreTargets(live []int32) {
	for _, v := range live {
		d.target[v] = v
	}
}

// contract applies the phase's contraction map to gc, updating m2, and
// returns the next Gc: every directed edge maps through target into a packed
// record, self-loops drop, and build sorts, dedups (keeping the minimum
// weight per contracted pair, which the cycle property allows MSF) and
// emits CSR. Each worker maps a stripe of about equal edge count into its
// edges' span of the record buffer, and the spans close up in stripe order.
// The result lives in the driver's other CSR buffer; gc's arrays are
// recycled by the contraction after next.
func (d *flatDriver) contract(gc *contracted, m2 []int) *contracted {
	defer since(&d.times.contract, time.Now())
	d.relabel(m2)
	if d.weighted {
		d.recs = resized(d.recs, len(gc.to))
	} else {
		d.keys = resized(d.keys, len(gc.to))
	}
	d.parts = resized(d.parts, d.rb.workers)
	ampc.FanOut(d.rb.workers, mapJob{d, gc}, mapJob.stripe)
	if d.weighted {
		d.recs = closeUp(d.recs, d.parts)
	} else {
		d.keys = closeUp(d.keys, d.parts)
	}
	d.restoreTargets(gc.verts)
	out := &d.bufs[0]
	if out == gc {
		out = &d.bufs[1]
	}
	return d.build(out)
}

type part struct{ at, n int }

// mapJob maps the edges of stripe w's live vertices through target into
// their own span of the record buffer, dropping self-loops.
type mapJob struct {
	d  *flatDriver
	gc *contracted
}

func (j mapJob) stripe(w int) error {
	d, gc := j.d, j.gc
	vertexAt := func(e int) int { return sort.SearchInts(gc.offs[:len(gc.verts)], e) }
	lo, hi := ampc.BlockRange(w, len(gc.to), len(d.parts))
	a, b := vertexAt(lo), vertexAt(hi)
	at, n := gc.offs[a], gc.offs[a]
	target, keys, recs := d.target, d.keys, d.recs
	for i := a; i < b; i++ {
		tv := target[gc.verts[i]]
		for e := gc.offs[i]; e < gc.offs[i+1]; e++ {
			tu := target[gc.to[e]]
			if tv == tu {
				continue
			}
			if d.weighted {
				recs[n] = wrec{pack(tv, tu), gc.w[e]}
			} else {
				keys[n] = pack(tv, tu)
			}
			n++
		}
	}
	d.parts[w] = part{at, n - at}
	return nil
}

// closeUp moves the parts of s, each at or after the total before it, together.
func closeUp[T any](s []T, parts []part) []T {
	n := 0
	for _, p := range parts {
		n += copy(s[n:], s[p.at:p.at+p.n])
	}
	return s[:n]
}

// contractStream is contract fed from a replayed edge stream instead of a
// materialized Gc: the first contraction of a streamed run (live is the
// ingest's vertex list), or — with target still the identity and live nil —
// the plain materialization of a small stream, multigraph edges deduped.
// Streams are unweighted, so this is for unweighted drivers only.
// Records are sorted and deduplicated in place whenever they have doubled
// since the last time (from compactAt on). The high-water mark is therefore
// a constant plus a small multiple of the deduped contracted graph (the keys
// and their sort scratch): never the input, and never a hash set over it.
func (d *flatDriver) contractStream(es graph.EdgeStream, live []int32, m2 []int) *contracted {
	defer since(&d.times.contract, time.Now())
	d.relabel(m2)
	d.limit = d.compactAt
	d.keys = slices.Grow(d.keys[:0], min(2*es.M(), d.limit))
	if d.collect == nil {
		d.collect = d.collectEdge
	}
	es.Each(d.collect)
	d.restoreTargets(live)
	return d.build(&d.bufs[0])
}

// collectEdge is contractStream's edge callback: it maps one streamed edge
// through target into two packed keys, compacting first when the keys
// reach limit.
func (d *flatDriver) collectEdge(u, v int) {
	tu, tv := d.target[u], d.target[v]
	if tu == tv {
		return
	}
	if len(d.keys) >= d.limit {
		d.sortKeys()
		d.keys = slices.Compact(d.keys)
		d.limit = max(d.limit, 2*len(d.keys))
	}
	d.keys = append(d.keys, pack(tu, tv), pack(tv, tu))
}

// build turns the collected directed-edge records into CSR in out. The
// records are ordered by source and, within a source, by destination (then
// weight): sortKeys' counting passes for packed keys, a comparison sort for
// weighted records. A single pass drops the duplicates, and — weighted
// graphs only — each adjacency run is then ordered by (weight, id).
func (d *flatDriver) build(out *contracted) *contracted {
	out.reset()
	if !d.weighted {
		d.sortKeys()
		out.to = slices.Grow(out.to, len(d.keys))
		// Ids fit 31 bits, so ^0 equals no packed pair and shares no source.
		prev := ^uint64(0)
		for _, k := range d.keys {
			if k == prev {
				continue
			}
			if k>>32 != prev>>32 {
				out.verts = append(out.verts, int32(k>>32))
				out.offs = append(out.offs, len(out.to))
			}
			out.to = append(out.to, int32(uint32(k)))
			prev = k
		}
		out.offs = append(out.offs, len(out.to))
		return out
	}

	recs := d.recs
	slices.SortFunc(recs, func(a, b wrec) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	n := 0
	for _, r := range recs {
		if n == 0 || r.key != recs[n-1].key {
			recs[n] = r
			n++
		}
	}
	recs = recs[:n]
	out.to = slices.Grow(out.to, n)
	out.w = slices.Grow(out.w, n)
	for lo := 0; lo < n; {
		from := recs[lo].key >> 32
		hi := lo + 1
		for hi < n && recs[hi].key>>32 == from {
			hi++
		}
		run := recs[lo:hi]
		slices.SortFunc(run, func(a, b wrec) int {
			if c := cmp.Compare(a.w, b.w); c != 0 {
				return c
			}
			return cmp.Compare(a.key, b.key)
		})
		out.verts = append(out.verts, int32(from))
		out.offs = append(out.offs, len(out.to))
		for _, r := range run {
			out.to = append(out.to, int32(uint32(r.key)))
			out.w = append(out.w, r.w)
		}
		lo = hi
	}
	out.offs = append(out.offs, len(out.to))
	return out
}

// sortKeys sorts keys with graph.SortPacked: both halves of a packed key are
// vertex ids below len(target), and a contraction holds fewer than 2^31
// records. It stripes over at most one worker per n keys, so the counts
// never outweigh the keys.
func (d *flatDriver) sortKeys() {
	stripes := min(d.rb.workers, max(1, len(d.keys)/max(1, len(d.target))))
	for len(d.counts) < stripes {
		d.counts = append(d.counts, make([]int32, len(d.target)))
	}
	d.sorted = resized(d.sorted, len(d.keys))
	graph.SortPacked(d.keys, d.sorted, d.counts[:stripes])
}

// shuffled returns the live vertices in the phase's exploration order: a
// copy shuffled by the driver RNG, block-partitioned across machines.
func (d *flatDriver) shuffled(verts []int32, driver rngShuffler) []int32 {
	d.order = append(d.order[:0], verts...)
	order := d.order
	driver.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// pickTargets is the master's half of a phase after the increase round:
// sample leaders, read back every live vertex's explored set (and, for
// MSF, its local-tree edge weights into d.committed) and set the
// contraction map.
func (d *flatDriver) pickTargets(store dds.StoreBackend, verts []int32, budget int, driver rngShuffler) error {
	d.sampleLeaders(verts, budget, driver)
	if err := d.readFound(store, verts); err != nil {
		return err
	}
	d.contractionTargets(verts)
	return nil
}

// sampleLeaders draws each live vertex as a leader with probability
// ~min(1/2, ln n'/d), the §6 sampling rate.
func (d *flatDriver) sampleLeaders(verts []int32, budget int, driver rngShuffler) {
	pLead := math.Log(float64(len(verts)) + 3)
	pLead /= float64(budget)
	if pLead > 0.5 {
		pLead = 0.5
	}
	for _, v := range verts {
		if driver.Bernoulli(pLead) {
			d.leader[v] = true
		}
	}
}

// contractionTargets picks every live vertex's contraction target from the
// explored sets readFound fetched: itself if a leader, the minimum id of a
// fully explored component, or the first leader it visited. It consumes the
// leader marks.
func (d *flatDriver) contractionTargets(verts []int32) {
	target, leader := d.target, d.leader
	for i, v := range verts {
		if leader[v] {
			continue
		}
		fv := d.found[d.off[i]:d.off[i+1]]
		t := v
		if d.whole[i] {
			// Entire component explored: collapse it to its minimum id.
			for _, x := range fv {
				if x < t {
					t = x
				}
			}
		} else {
			for _, x := range fv {
				if leader[x] {
					t = x
					break
				}
			}
		}
		target[v] = t
	}
	for _, v := range verts {
		leader[v] = false
	}
}

// readFound reads back the explored set every live vertex recorded in the
// increase round just run — sizes first, then the members in one batched
// sweep — into off/whole/found; a weighted driver (MSF) also appends the
// local-tree edge weights, one per member, to committed.
func (d *flatDriver) readFound(store dds.StoreBackend, verts []int32) error {
	defer since(&d.times.readback, time.Now())
	n := len(verts)
	d.off = resized(d.off, n+1)
	d.whole = resized(d.whole, n)
	off, whole := d.off, d.whole
	err := d.rb.perVertex(store, tagConnSize, "size", verts, func(i int, v dds.Value) {
		off[i+1] = int(v.A)
		whole[i] = v.B == 1
	})
	if err != nil {
		return err
	}
	off[0] = 0
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	total := off[n]
	d.found = resized(d.found, total)
	found := d.found
	err = d.rb.perMember(store, tagConnFound, "found", verts, off, func(j int, v dds.Value) {
		found[j] = int32(v.A)
	})
	if err != nil || !d.weighted {
		return err
	}
	base := len(d.committed)
	d.committed = slices.Grow(d.committed, total)[:base+total]
	tree := d.committed[base:]
	return d.rb.perMember(store, tagMSFEdge, "tree-edge", verts, off, func(j int, v dds.Value) {
		tree[j] = v.A
	})
}

// readback is the master's batched read path over the current store: key
// chunks go through the backend's GetMany, striped over the run's workers,
// with per-worker key and value buffers kept across phases. These reads
// model the master machine and are charged to no budget.
type readback struct {
	workers int
	scratch []rbScratch
}

type rbScratch struct {
	keys []dds.Key
	vals []dds.Value
	oks  []bool
}

// newReadback returns a read path striped over the run's Options.Workers
// goroutines (zero selects GOMAXPROCS, as in the runtime).
func newReadback(workers int) readback {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return readback{workers: workers}
}

// rbChunk is the key batch one GetMany call carries: large enough that the
// stores' shard-sorted sweep forms long same-shard runs, small enough that
// the buffers stay cache-resident.
const rbChunk = 4096

// perVertex reads record (tag, v, 0) of every vertex in verts and hands the
// i-th vertex's value to put. A missing record is an error naming what it
// is; an empty what allows absent records (a §5 query process leaves
// truncated elements without a status) and skips them.
func (rb *readback) perVertex(store dds.StoreBackend, tag uint8, what string, verts []int32, put func(i int, v dds.Value)) error {
	var missing func(i int) error
	if what != "" {
		missing = func(i int) error { return missingRecord(store, what, int64(verts[i]), 0) }
	}
	return rb.sweep(store, len(verts), put,
		func(keys []dds.Key, lo int) {
			for t := range keys {
				keys[t] = dds.Key{Tag: tag, A: int64(verts[lo+t])}
			}
		},
		missing)
}

// perMember reads records (tag, v, 0..k-1) of every vertex, where vertex i
// holds k = off[i+1]-off[i] of them, and hands each value to put with its
// flat position off[i]+index. A missing record is an error.
func (rb *readback) perMember(store dds.StoreBackend, tag uint8, what string, verts []int32, off []int, put func(j int, v dds.Value)) error {
	// owner returns the vertex index whose records cover flat position j.
	owner := func(j int) int {
		return sort.Search(len(verts), func(i int) bool { return off[i+1] > j })
	}
	return rb.sweep(store, off[len(verts)], put,
		func(keys []dds.Key, lo int) {
			i := owner(lo)
			for t := range keys {
				for off[i+1] <= lo+t {
					i++
				}
				keys[t] = dds.Key{Tag: tag, A: int64(verts[i]), B: int64(lo + t - off[i])}
			}
		},
		func(j int) error {
			i := owner(j)
			return missingRecord(store, what, int64(verts[i]), int64(j-off[i]))
		})
}

// sweep reads total keys in chunks: fill writes the keys of flat positions
// [lo, lo+len(keys)), every value goes to put with its position, and the
// first absent key (lowest position per worker, lowest worker first) fails
// the sweep with missing's error. A nil missing allows absent keys: they are
// skipped, and since a networked store whose replicas were all exhausted
// also reads as absent, the sweep then fails on the store's latched read
// error instead. Workers own contiguous spans, so put and fill are called
// concurrently for disjoint positions only.
func (rb *readback) sweep(store dds.StoreBackend, total int, put func(j int, v dds.Value), fill func(keys []dds.Key, lo int), missing func(j int) error) error {
	workers := rb.workers
	if most := (total + rbChunk - 1) / rbChunk; workers > most {
		workers = most
	}
	if workers < 1 {
		workers = 1
	}
	for len(rb.scratch) < workers {
		rb.scratch = append(rb.scratch, rbScratch{
			keys: make([]dds.Key, rbChunk),
			vals: make([]dds.Value, rbChunk),
			oks:  make([]bool, rbChunk),
		})
	}
	span := func(w int) error {
		s := &rb.scratch[w]
		lo, hi := ampc.BlockRange(w, total, workers)
		for ; lo < hi; lo += rbChunk {
			n := min(rbChunk, hi-lo)
			keys, vals, oks := s.keys[:n], s.vals[:n], s.oks[:n]
			fill(keys, lo)
			store.GetMany(keys, vals, oks)
			for t, ok := range oks {
				if ok {
					put(lo+t, vals[t])
				} else if missing != nil {
					return missing(lo + t)
				}
			}
		}
		return nil
	}
	err := ampc.FanOut(workers, span, func(span func(int) error, w int) error { return span(w) })
	if err == nil && missing == nil {
		if cause := store.ReadErr(); cause != nil {
			err = fmt.Errorf("core: read-back: %w", cause)
		}
	}
	return err
}

// missingRecord reports a record the previous round must have written and
// the master could not read back. Folding the absent value in as a zero
// would silently contract a vertex into vertex 0, so it is an error; when
// the backend latched a read failure (a networked store whose replicas were
// all exhausted reads as absent), that failure is the cause and is wrapped.
func missingRecord(store dds.StoreBackend, what string, a, b int64) error {
	err := fmt.Errorf("core: missing %s record (%d,%d)", what, a, b)
	if cause := store.ReadErr(); cause != nil {
		return fmt.Errorf("%w: %w", err, cause)
	}
	return err
}
