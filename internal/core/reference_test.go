package core

// The parent implementation of the three §5 query processes, kept as the
// reference the ranked-adjacency rewrite is compared against: adjacency in id
// order, a separate priority table, and an eval that scans every neighbor
// (adjacency, status and priority reads for each), collects the earlier ones
// and sorts them on every visit. It draws the same permutation from the same
// driver streams, so outputs must match the rewrite exactly and its query
// totals are the price the rewrite must beat.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// DDS tags private to the MIS algorithm.
const (
	refTagMISPrio   = graph.TagAlgoBase + 16 // (tag, v, 0) -> (priority rank, 0)
	refTagMISStatus = graph.TagAlgoBase + 17 // (tag, v, 0) -> (1 in MIS / 0 not, 0)
)

func refMIS(ctx context.Context, g *graph.Graph, opts Options) (MISResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MISResult{}, err
	}
	n := g.N()
	if opts.budgetFactor == 0 {
		_, s := opts.params(n, g.M())
		opts.budgetFactor = ampc.DefaultBudgetFactor + (3*g.MaxDeg()+16)/s
	}
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()
	driver := opts.driverRNG(4)

	// Publish the graph and the priority permutation.
	pi := driver.Perm(n)
	pairs := graph.Encode(g)
	for v := 0; v < n; v++ {
		pairs = append(pairs, dds.KV{
			Key:   dds.Key{Tag: refTagMISPrio, A: int64(v)},
			Value: dds.Value{A: int64(pi[v])},
		})
	}
	if err := rt.AddStatic("mis-publish", pairs); err != nil {
		return MISResult{}, err
	}

	settled := make([]int8, n) // 0 unknown, +1 in MIS, -1 not in MIS
	unsettled := n
	maxIters := 8*shrinkIterations(opts.Epsilon) + 32 // generous safety cap
	iters := 0

	vertices := make([]int, n)
	for v := range vertices {
		vertices[v] = v
	}

	for unsettled > 0 {
		if err := ctx.Err(); err != nil {
			return MISResult{}, err
		}
		if iters++; iters > maxIters {
			return MISResult{}, fmt.Errorf("core: MIS failed to settle after %d iterations (%d left)", maxIters, unsettled)
		}
		driver.Shuffle(len(vertices), func(i, j int) { vertices[i], vertices[j] = vertices[j], vertices[i] })

		err := rt.Round(fmt.Sprintf("mis-iter-%d", iters), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(vertices), ctx.P)
			q := &refMISQuery{ctx: ctx, memo: make(map[int]int8)}
			// Carry forward settled statuses for owned vertices, then run
			// the truncated query process for the unsettled ones.
			for _, v := range vertices[lo:hi] {
				if s := settled[v]; s != 0 {
					q.writeStatus(v, s)
				}
			}
			for _, v := range vertices[lo:hi] {
				if settled[v] != 0 {
					continue
				}
				capacity := ctx.S // the paper's per-vertex visit cap c
				q.eval(v, &capacity)
			}
			q.flush()
			return nil
		})
		if err != nil {
			return MISResult{}, err
		}

		// Master: fold the round's discoveries back into the driver state,
		// and apply the Algorithm 4 removal rule — neighbors of vertices
		// that joined the MIS leave the graph as non-members (an MPC
		// compaction step in the paper).
		for v := 0; v < n; v++ {
			if settled[v] != 0 {
				continue
			}
			if s, ok := rt.Store().Get(dds.Key{Tag: refTagMISStatus, A: int64(v)}); ok {
				if s.A == 1 {
					settled[v] = 1
				} else {
					settled[v] = -1
				}
			}
		}
		unsettled = 0
		for v := 0; v < n; v++ {
			if settled[v] == 1 {
				for _, u := range g.Neighbors(v) {
					if settled[u] == 0 {
						settled[u] = -1
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if settled[v] == 0 {
				unsettled++
			}
		}
	}

	in := make([]bool, n)
	for v := range in {
		in[v] = settled[v] == 1
	}
	return MISResult{InMIS: in, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// refMISQuery runs the truncated query process (Algorithm 5) for one machine
// within one round. memo caches fully determined vertices: f(v, π) is a
// deterministic function of the graph and π, so locally determined values
// are globally consistent and can be published.
type refMISQuery struct {
	ctx  *ampc.Ctx
	memo map[int]int8
	out  []dds.KV // buffered status writes, flushed once per machine
}

func (q *refMISQuery) writeStatus(v int, s int8) {
	val := int64(0)
	if s == 1 {
		val = 1
	}
	q.out = append(q.out, dds.KV{Key: dds.Key{Tag: refTagMISStatus, A: int64(v)}, Value: dds.Value{A: val}})
}

// flush hands the buffered statuses to the store in one batched write —
// the machine's whole round output, order preserved.
func (q *refMISQuery) flush() {
	q.ctx.WriteMany(q.out)
	q.out = q.out[:0]
}

// reserve is the slack kept unspent in the machine budget so bookkeeping
// writes never trip ErrBudget; running low is treated as truncation.
const refReserve = 8

func (q *refMISQuery) low() bool { return q.ctx.Remaining() <= refReserve }

// eval determines f(v, π) if possible, returning +1 (in MIS), -1 (not), or
// 0 (unknown: the visit capacity or the machine budget ran out). capacity
// counts recursive visits, matching Algorithm 5's q.
func (q *refMISQuery) eval(v int, capacity *int) int8 {
	if s, ok := q.memo[v]; ok {
		return s
	}
	if *capacity <= 0 || q.low() {
		return 0
	}
	*capacity--

	// Previously settled status is authoritative.
	if s, ok := q.ctx.Read(dds.Key{Tag: refTagMISStatus, A: int64(v)}); ok {
		r := int8(-1)
		if s.A == 1 {
			r = 1
		}
		q.memo[v] = r
		return r
	}

	p, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMISPrio, A: int64(v)})
	if !ok {
		return 0
	}
	myPrio := p.A

	// Scan the neighborhood: settled non-members are gone from the
	// remaining graph; a settled member anywhere decides v immediately
	// (MIS neighbors exclude v regardless of order).
	d, ok := q.ctx.ReadStatic(graph.DegKey(v))
	if !ok {
		return 0
	}
	var earlier []refPrioNbr
	for i := 0; i < int(d.A); i++ {
		if q.low() {
			return 0
		}
		a, ok := q.ctx.ReadStatic(graph.AdjKey(v, i))
		if !ok {
			return 0
		}
		u := int(a.A)
		if s, done := q.memo[u]; done {
			if s == 1 {
				q.memo[v] = -1
				q.writeStatus(v, -1)
				return -1
			}
			if s == -1 {
				continue
			}
		}
		if s, ok := q.ctx.Read(dds.Key{Tag: refTagMISStatus, A: int64(u)}); ok {
			if s.A == 1 {
				q.memo[v] = -1
				q.writeStatus(v, -1)
				return -1
			}
			q.memo[u] = -1
			continue
		}
		up, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMISPrio, A: int64(u)})
		if !ok {
			return 0
		}
		if up.A < myPrio {
			earlier = append(earlier, refPrioNbr{u, up.A})
		}
	}
	sort.Slice(earlier, func(i, j int) bool { return earlier[i].prio < earlier[j].prio })

	for _, u := range earlier {
		switch q.eval(u.v, capacity) {
		case 1:
			q.memo[v] = -1
			q.writeStatus(v, -1)
			return -1
		case 0:
			return 0 // truncated below; v stays unknown this iteration
		}
	}
	q.memo[v] = 1
	q.writeStatus(v, 1)
	return 1
}

type refPrioNbr struct {
	v    int
	prio int64
}

// DDS tags private to the maximal matching algorithm.
const (
	refTagMatchEdge   = graph.TagAlgoBase + 32 // (tag, e, 0) -> (u, v) endpoints of edge e
	refTagMatchInc    = graph.TagAlgoBase + 33 // (tag, v, i) -> (edge id of v's i-th incident edge, 0)
	refTagMatchPrio   = graph.TagAlgoBase + 34 // (tag, e, 0) -> (priority rank, 0)
	refTagMatchStatus = graph.TagAlgoBase + 35 // (tag, e, 0) -> (1 matched / 0 not, 0)
)

func refMaximalMatching(ctx context.Context, g *graph.Graph, opts Options) (MatchingResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MatchingResult{}, err
	}
	m := g.M()
	if opts.budgetFactor == 0 {
		_, s := opts.params(m+1, m)
		// A line-graph neighborhood scan touches both endpoints' incident
		// edge lists: afford 2Δ of them plus the usual c·S.
		opts.budgetFactor = ampc.DefaultBudgetFactor + (6*g.MaxDeg()+16)/s
	}
	rt := opts.newRuntime(ctx, m+1, m)
	defer rt.Close()
	driver := opts.driverRNG(12)

	// Publish the line-graph structure: edge endpoints, per-vertex incident
	// edge ids, and the random edge priorities.
	pi := driver.Perm(m)
	pairs := make([]dds.KV, 0, 3*m+g.N())
	incIndex := make([]int, g.N())
	for e, edge := range g.Edges() {
		pairs = append(pairs,
			dds.KV{Key: dds.Key{Tag: refTagMatchEdge, A: int64(e)}, Value: dds.Value{A: int64(edge.U), B: int64(edge.V)}},
			dds.KV{Key: dds.Key{Tag: refTagMatchPrio, A: int64(e)}, Value: dds.Value{A: int64(pi[e])}},
			dds.KV{Key: dds.Key{Tag: refTagMatchInc, A: int64(edge.U), B: int64(incIndex[edge.U])}, Value: dds.Value{A: int64(e)}},
			dds.KV{Key: dds.Key{Tag: refTagMatchInc, A: int64(edge.V), B: int64(incIndex[edge.V])}, Value: dds.Value{A: int64(e)}},
		)
		incIndex[edge.U]++
		incIndex[edge.V]++
	}
	for v := 0; v < g.N(); v++ {
		pairs = append(pairs, dds.KV{Key: graph.DegKey(v), Value: dds.Value{A: int64(g.Deg(v))}})
	}
	if err := rt.AddStatic("match-publish", pairs); err != nil {
		return MatchingResult{}, err
	}

	settled := make([]int8, m)
	unsettled := m
	maxIters := 8*shrinkIterations(opts.Epsilon) + 32
	iters := 0

	edges := make([]int, m)
	for e := range edges {
		edges[e] = e
	}

	for unsettled > 0 {
		if err := ctx.Err(); err != nil {
			return MatchingResult{}, err
		}
		if iters++; iters > maxIters {
			return MatchingResult{}, fmt.Errorf("core: matching failed to settle after %d iterations (%d left)", maxIters, unsettled)
		}
		driver.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		err := rt.Round(fmt.Sprintf("match-iter-%d", iters), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(edges), ctx.P)
			q := &refMatchQuery{ctx: ctx, memo: make(map[int]int8)}
			for _, e := range edges[lo:hi] {
				if s := settled[e]; s != 0 {
					q.writeStatus(e, s)
				}
			}
			for _, e := range edges[lo:hi] {
				if settled[e] != 0 {
					continue
				}
				capacity := ctx.S
				q.eval(e, &capacity)
			}
			q.flush()
			return nil
		})
		if err != nil {
			return MatchingResult{}, err
		}

		// Master: fold discoveries, then apply the removal rule (edges
		// adjacent to a matched edge leave the graph unmatched).
		for e := 0; e < m; e++ {
			if settled[e] != 0 {
				continue
			}
			if s, ok := rt.Store().Get(dds.Key{Tag: refTagMatchStatus, A: int64(e)}); ok {
				if s.A == 1 {
					settled[e] = 1
				} else {
					settled[e] = -1
				}
			}
		}
		matchedV := make([]bool, g.N())
		for e, edge := range g.Edges() {
			if settled[e] == 1 {
				matchedV[edge.U] = true
				matchedV[edge.V] = true
			}
		}
		unsettled = 0
		for e, edge := range g.Edges() {
			if settled[e] == 0 && (matchedV[edge.U] || matchedV[edge.V]) {
				settled[e] = -1
			}
			if settled[e] == 0 {
				unsettled++
			}
		}
	}

	matched := make([]bool, m)
	for e := range matched {
		matched[e] = settled[e] == 1
	}
	return MatchingResult{Matched: matched, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// refMatchQuery runs the truncated query process on the line graph.
type refMatchQuery struct {
	ctx  *ampc.Ctx
	memo map[int]int8
	out  []dds.KV // buffered status writes, flushed once per machine
}

func (q *refMatchQuery) writeStatus(e int, s int8) {
	val := int64(0)
	if s == 1 {
		val = 1
	}
	q.out = append(q.out, dds.KV{Key: dds.Key{Tag: refTagMatchStatus, A: int64(e)}, Value: dds.Value{A: val}})
}

// flush hands the buffered statuses to the store in one batched write.
func (q *refMatchQuery) flush() {
	q.ctx.WriteMany(q.out)
	q.out = q.out[:0]
}

func (q *refMatchQuery) low() bool { return q.ctx.Remaining() <= refReserve }

// eval determines whether edge e joins the greedy matching, returning +1,
// -1, or 0 (truncated). capacity counts recursive visits.
func (q *refMatchQuery) eval(e int, capacity *int) int8 {
	if s, ok := q.memo[e]; ok {
		return s
	}
	if *capacity <= 0 || q.low() {
		return 0
	}
	*capacity--

	if s, ok := q.ctx.Read(dds.Key{Tag: refTagMatchStatus, A: int64(e)}); ok {
		r := int8(-1)
		if s.A == 1 {
			r = 1
		}
		q.memo[e] = r
		return r
	}

	p, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMatchPrio, A: int64(e)})
	if !ok {
		return 0
	}
	myPrio := p.A
	ends, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMatchEdge, A: int64(e)})
	if !ok {
		return 0
	}

	// Scan the incident edges of both endpoints: a settled matched
	// neighbor decides e immediately; settled unmatched neighbors are gone
	// from the remaining line graph.
	var earlier []refPrioNbr
	for _, v := range [2]int64{ends.A, ends.B} {
		if q.low() {
			return 0
		}
		deg, ok := q.ctx.ReadStatic(graph.DegKey(int(v)))
		if !ok {
			return 0
		}
		for i := 0; i < int(deg.A); i++ {
			if q.low() {
				return 0
			}
			rec, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMatchInc, A: v, B: int64(i)})
			if !ok {
				return 0
			}
			o := int(rec.A)
			if o == e {
				continue
			}
			if s, done := q.memo[o]; done {
				if s == 1 {
					q.memo[e] = -1
					q.writeStatus(e, -1)
					return -1
				}
				continue
			}
			if s, ok := q.ctx.Read(dds.Key{Tag: refTagMatchStatus, A: int64(o)}); ok {
				if s.A == 1 {
					q.memo[e] = -1
					q.writeStatus(e, -1)
					return -1
				}
				q.memo[o] = -1
				continue
			}
			op, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagMatchPrio, A: int64(o)})
			if !ok {
				return 0
			}
			if op.A < myPrio {
				earlier = append(earlier, refPrioNbr{o, op.A})
			}
		}
	}
	sort.Slice(earlier, func(i, j int) bool { return earlier[i].prio < earlier[j].prio })

	for _, o := range earlier {
		switch q.eval(o.v, capacity) {
		case 1:
			q.memo[e] = -1
			q.writeStatus(e, -1)
			return -1
		case 0:
			return 0
		}
	}
	q.memo[e] = 1
	q.writeStatus(e, 1)
	return 1
}

// DDS tags private to the coloring algorithm.
const (
	refTagColorPrio   = graph.TagAlgoBase + 38 // (tag, v, 0) -> (priority rank, 0)
	refTagColorStatus = graph.TagAlgoBase + 39 // (tag, v, 0) -> (color + 1, 0)
)

func refGreedyColoring(ctx context.Context, g *graph.Graph, opts Options) (ColoringResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ColoringResult{}, err
	}
	n := g.N()
	if opts.budgetFactor == 0 {
		_, s := opts.params(n, g.M())
		opts.budgetFactor = ampc.DefaultBudgetFactor + (3*g.MaxDeg()+16)/s
	}
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()
	driver := opts.driverRNG(13)

	pi := driver.Perm(n)
	pairs := graph.Encode(g)
	for v := 0; v < n; v++ {
		pairs = append(pairs, dds.KV{
			Key:   dds.Key{Tag: refTagColorPrio, A: int64(v)},
			Value: dds.Value{A: int64(pi[v])},
		})
	}
	if err := rt.AddStatic("color-publish", pairs); err != nil {
		return ColoringResult{}, err
	}

	color := make([]int, n)
	for v := range color {
		color[v] = -1
	}
	unsettled := n
	maxIters := 8*shrinkIterations(opts.Epsilon) + 32
	iters := 0

	vertices := make([]int, n)
	for v := range vertices {
		vertices[v] = v
	}

	for unsettled > 0 {
		if err := ctx.Err(); err != nil {
			return ColoringResult{}, err
		}
		if iters++; iters > maxIters {
			return ColoringResult{}, fmt.Errorf("core: coloring failed to settle after %d iterations (%d left)", maxIters, unsettled)
		}
		driver.Shuffle(len(vertices), func(i, j int) { vertices[i], vertices[j] = vertices[j], vertices[i] })

		err := rt.Round(fmt.Sprintf("color-iter-%d", iters), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(vertices), ctx.P)
			q := &refColorQuery{ctx: ctx, memo: make(map[int]int)}
			for _, v := range vertices[lo:hi] {
				if color[v] >= 0 {
					q.writeColor(v, color[v])
				}
			}
			for _, v := range vertices[lo:hi] {
				if color[v] >= 0 {
					continue
				}
				capacity := ctx.S
				q.eval(v, &capacity)
			}
			q.flush()
			return nil
		})
		if err != nil {
			return ColoringResult{}, err
		}

		unsettled = 0
		for v := 0; v < n; v++ {
			if color[v] >= 0 {
				continue
			}
			if s, ok := rt.Store().Get(dds.Key{Tag: refTagColorStatus, A: int64(v)}); ok {
				color[v] = int(s.A) - 1
			} else {
				unsettled++
			}
		}
	}

	return ColoringResult{Color: color, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// refColorQuery evaluates greedy colors through the truncated query process.
// memo holds determined colors; -1 is never stored.
type refColorQuery struct {
	ctx  *ampc.Ctx
	memo map[int]int
	out  []dds.KV // buffered color writes, flushed once per machine
}

func (q *refColorQuery) writeColor(v, c int) {
	q.out = append(q.out, dds.KV{Key: dds.Key{Tag: refTagColorStatus, A: int64(v)}, Value: dds.Value{A: int64(c) + 1}})
}

// flush hands the buffered colors to the store in one batched write.
func (q *refColorQuery) flush() {
	q.ctx.WriteMany(q.out)
	q.out = q.out[:0]
}

// eval determines v's greedy color, returning (color, true) or (0, false)
// when the visit capacity or machine budget ran out.
func (q *refColorQuery) eval(v int, capacity *int) (int, bool) {
	if c, ok := q.memo[v]; ok {
		return c, true
	}
	if *capacity <= 0 || q.ctx.Remaining() <= refReserve {
		return 0, false
	}
	*capacity--

	if s, ok := q.ctx.Read(dds.Key{Tag: refTagColorStatus, A: int64(v)}); ok {
		c := int(s.A) - 1
		q.memo[v] = c
		return c, true
	}

	p, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagColorPrio, A: int64(v)})
	if !ok {
		return 0, false
	}
	myPrio := p.A
	d, ok := q.ctx.ReadStatic(graph.DegKey(v))
	if !ok {
		return 0, false
	}

	// Only earlier-priority neighbors constrain v: in the sequential greedy
	// process, later neighbors pick their colors after v. Later neighbors
	// are skipped before their statuses are even read.
	var earlier []refPrioNbr
	used := map[int]bool{}
	for i := 0; i < int(d.A); i++ {
		if q.ctx.Remaining() <= refReserve {
			return 0, false
		}
		a, ok := q.ctx.ReadStatic(graph.AdjKey(v, i))
		if !ok {
			return 0, false
		}
		u := int(a.A)
		up, ok := q.ctx.ReadStatic(dds.Key{Tag: refTagColorPrio, A: int64(u)})
		if !ok {
			return 0, false
		}
		if up.A >= myPrio {
			continue
		}
		if c, done := q.memo[u]; done {
			used[c] = true
			continue
		}
		if s, ok := q.ctx.Read(dds.Key{Tag: refTagColorStatus, A: int64(u)}); ok {
			c := int(s.A) - 1
			q.memo[u] = c
			used[c] = true
			continue
		}
		earlier = append(earlier, refPrioNbr{u, up.A})
	}

	sort.Slice(earlier, func(i, j int) bool { return earlier[i].prio < earlier[j].prio })
	for _, u := range earlier {
		if _, done := q.memo[u.v]; done {
			continue
		}
		c, ok := q.eval(u.v, capacity)
		if !ok {
			return 0, false
		}
		used[c] = true
	}
	// All earlier neighbors colored: take the smallest free color.
	c := 0
	for used[c] {
		c++
	}
	q.memo[v] = c
	q.writeColor(v, c)
	return c, true
}

// TestRankedQueryProcessMatchesReference runs the rewrite and the reference
// on the same inputs: identical outputs (both are functions of (g, π) alone),
// strictly fewer queries everywhere, and at most half on the graphs whose
// neighborhoods are big enough for the per-neighbor price to show. Coloring
// is held to two thirds there: a vertex needs the color of every earlier
// neighbor, the query trees are exponential in the degree, and both versions
// spend iteration 1 against the machine budget — the total is then close to
// budget × machines × iterations whatever one read buys.
func TestRankedQueryProcessMatchesReference(t *testing.T) {
	type run struct {
		out     []int
		queries int64
	}
	bools := func(bs []bool) []int {
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = btoi(b)
		}
		return out
	}
	algos := []struct {
		name     string
		num, den int64 // queries must be at most num/den of the reference's
		ref, got func(g *graph.Graph, opts Options) (run, error)
	}{
		{"mis", 1, 2,
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := refMIS(context.Background(), g, opts)
				return run{bools(r.InMIS), r.Telemetry.TotalQueries}, err
			},
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := MIS(context.Background(), g, opts)
				return run{bools(r.InMIS), r.Telemetry.TotalQueries}, err
			}},
		{"matching", 1, 2,
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := refMaximalMatching(context.Background(), g, opts)
				return run{bools(r.Matched), r.Telemetry.TotalQueries}, err
			},
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := MaximalMatching(context.Background(), g, opts)
				return run{bools(r.Matched), r.Telemetry.TotalQueries}, err
			}},
		{"coloring", 2, 3,
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := refGreedyColoring(context.Background(), g, opts)
				return run{r.Color, r.Telemetry.TotalQueries}, err
			},
			func(g *graph.Graph, opts Options) (run, error) {
				r, err := GreedyColoring(context.Background(), g, opts)
				return run{r.Color, r.Telemetry.TotalQueries}, err
			}},
	}
	for _, kind := range []string{"gnm", "powerlaw", "star"} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := graph.Star(300)
			if kind != "star" {
				g = goldenGraph(kind, 1200, 4000, seed)
			}
			for _, workers := range []int{1, 8} {
				for _, a := range algos {
					cell := fmt.Sprintf("%s/%s seed %d workers %d", a.name, kind, seed, workers)
					opts := Options{Seed: seed, Workers: workers}
					want, err := a.ref(g, opts)
					if err != nil {
						t.Fatalf("%s: reference: %v", cell, err)
					}
					got, err := a.got(g, opts)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if !slices.Equal(got.out, want.out) {
						t.Errorf("%s: output differs from the reference", cell)
					}
					if got.queries >= want.queries {
						t.Errorf("%s: %d queries, reference %d: not fewer", cell, got.queries, want.queries)
					}
					if kind != "star" && a.den*got.queries > a.num*want.queries {
						t.Errorf("%s: %d queries, reference %d: more than %d/%d", cell, got.queries, want.queries, a.num, a.den)
					}
				}
			}
		}
	}
}
