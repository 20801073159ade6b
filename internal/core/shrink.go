package core

import (
	"context"
	"fmt"
	"math"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// DDS tags private to the cycle algorithms (§4, §8). They start above
// graph.TagAlgoBase so they never collide with the standard graph encoding.
const (
	tagCycAdj    = graph.TagAlgoBase + 0 // (tag, v, 0) -> (nbr0, nbr1)
	tagCycMark   = graph.TagAlgoBase + 1 // (tag, v, 0) -> (1, 0) when sampled
	tagCycEdge   = graph.TagAlgoBase + 2 // (tag, v, 0) -> (lv, rv) contraction result
	tagCycParent = graph.TagAlgoBase + 3 // (tag, u, 0) -> (sample, 0) absorbing sample
	tagCycLabel  = graph.TagAlgoBase + 4 // (tag, v, 0) -> (component label, 0)
	tagCycPi     = graph.TagAlgoBase + 5 // (tag, v, 0) -> (priority rank, 0)
	tagCycRep    = graph.TagAlgoBase + 6 // (tag, v, 0) -> (lower-rank vertex hit, 0)
)

// ShrinkTrace runs the Shrink procedure (Algorithm 1) on a cycle graph and
// returns the alive vertex count after each iteration, for empirical
// validation of Lemma 4.1 (each iteration shrinks Ω(n^ε)-size cycles by a
// factor of n^{δ/2} w.h.p.).
func ShrinkTrace(ctx context.Context, g *graph.Graph, delta float64, iterations int, opts Options) ([]int, Telemetry, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, Telemetry{}, err
	}
	cg, err := cycleGraphOf(g)
	if err != nil {
		return nil, Telemetry{}, err
	}
	rt := opts.newRuntime(ctx, g.N(), g.M())
	defer rt.Close()
	driver := opts.driverRNG(0x51)

	sizes := []int{cg.size()}
	cur := cg
	for i := 0; i < iterations; i++ {
		res, err := shrink(rt, cur, g.N(), delta, 1, driver)
		if err != nil {
			return nil, Telemetry{}, err
		}
		cur = res.g
		sizes = append(sizes, cur.size())
	}
	return sizes, telemetryFrom(rt, iterations), nil
}

// cycleGraph is a graph whose components are all cycles, represented as a
// pair of neighbors per alive vertex. Unlike graph.Graph it permits the
// degenerate shapes contraction produces: 2-cycles (both neighbor slots
// equal) and self-loops (a slot pointing at the vertex itself).
type cycleGraph struct {
	verts []int
	adj   map[int][2]int
}

// cycleGraphOf converts a 2-regular simple graph.
func cycleGraphOf(g *graph.Graph) (*cycleGraph, error) {
	cg := &cycleGraph{adj: make(map[int][2]int, g.N())}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != 2 {
			return nil, fmt.Errorf("core: cycle-graph input must be 2-regular, vertex %d has degree %d", v, g.Deg(v))
		}
		cg.verts = append(cg.verts, v)
		cg.adj[v] = [2]int{g.Neighbor(v, 0), g.Neighbor(v, 1)}
	}
	return cg, nil
}

// size returns the number of alive vertices.
func (cg *cycleGraph) size() int { return len(cg.verts) }

// components counts the cycles by local traversal (the "solve on a single
// machine" final step of Algorithm 2) and labels each alive vertex with the
// smallest vertex id on its cycle.
func (cg *cycleGraph) components() map[int]int {
	label := make(map[int]int, cg.size())
	for _, s := range cg.verts {
		if _, done := label[s]; done {
			continue
		}
		// Walk the cycle collecting members and the minimum id.
		members := []int{s}
		min := s
		prev, cur := s, cg.adj[s][0]
		for cur != s {
			members = append(members, cur)
			if cur < min {
				min = cur
			}
			n := cg.adj[cur]
			next := n[0]
			if next == prev {
				next = n[1]
			}
			prev, cur = cur, next
		}
		for _, v := range members {
			label[v] = min
		}
	}
	return label
}

// shrinkResult carries one Shrink run's outputs.
type shrinkResult struct {
	g *cycleGraph
	// parent maps every vertex absorbed during contraction to the sampled
	// vertex that traversed over it. Chasing parent pointers (at most one
	// per iteration) leads from any original vertex to an alive vertex.
	parent map[int]int
	// iterations is the number of executed sample-and-contract iterations.
	iterations int
}

// shrink implements Algorithm 1 (Shrink(G, δ, t)) on the runtime: t
// iterations of sampling vertices with probability n^{-δ/2} and contracting
// the paths between consecutive samples to single edges via adaptive cycle
// traversal. Cycles that receive no sample in an iteration survive
// unchanged (they are already small w.h.p.).
//
// Each iteration costs two AMPC rounds: one to publish the current marked
// graph, one for the traversals. Iterations stop early once the graph fits
// in a single machine's space.
func shrink(rt *ampc.Runtime, cg *cycleGraph, n int, delta float64, t int, driver *rng.RNG) (*shrinkResult, error) {
	res := &shrinkResult{g: cg, parent: make(map[int]int)}
	sampleP := math.Pow(float64(n), -delta/2)
	stopAt := rt.Config().S // fits on one machine: solve locally

	for iter := 0; iter < t && res.g.size() > stopAt; iter++ {
		res.iterations++
		cur := res.g

		// Round 1: publish adjacency and sampled marks. Machines own
		// blocks of the alive vertex list and sample with their private
		// streams, so the marks are reproducible under failure replay.
		verts := cur.verts
		err := rt.Round(fmt.Sprintf("shrink-publish-%d", iter), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(verts), ctx.P)
			for _, v := range verts[lo:hi] {
				a := cur.adj[v]
				ctx.Write(dds.Key{Tag: tagCycAdj, A: int64(v)}, dds.Value{A: int64(a[0]), B: int64(a[1])})
				if ctx.RNG.Bernoulli(sampleP) {
					ctx.Write(dds.Key{Tag: tagCycMark, A: int64(v)}, dds.Value{A: 1})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Master: collect the sample set M from the store (uncounted master
		// read) and randomly distribute it to the machines.
		samples, err := readSamples(rt.Store(), verts)
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			// No vertex sampled (only plausible when the graph is tiny):
			// nothing contracts this iteration.
			continue
		}
		driver.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })

		// Round 2: every sampled vertex traverses the cycle in both
		// directions until the next sample, using the adaptivity of the
		// model; the paths in between contract to single edges.
		err = rt.Round(fmt.Sprintf("shrink-traverse-%d", iter), func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, len(samples), ctx.P)
			for _, v := range samples[lo:hi] {
				adj, _ := ctx.Read(dds.Key{Tag: tagCycAdj, A: int64(v)})
				ends := [2]int{}
				for dir := 0; dir < 2; dir++ {
					start := int(adj.A)
					if dir == 1 {
						start = int(adj.B)
					}
					end, err := traverse(ctx, v, start)
					if err != nil {
						return err
					}
					ends[dir] = end
				}
				ctx.Write(dds.Key{Tag: tagCycEdge, A: int64(v)}, dds.Value{A: int64(ends[0]), B: int64(ends[1])})
			}
			return ctx.Err()
		})
		if err != nil {
			return nil, err
		}

		next, err := readContracted(rt.Store(), cur, samples, res.parent)
		if err != nil {
			return nil, err
		}
		res.g = next
	}
	return res, nil
}

// readSamples returns the vertices the publish round marked. An absent mark
// means "unsampled", so a mark the backend lost is visible only as a latched
// read failure, which fails the iteration.
func readSamples(store dds.StoreBackend, verts []int) ([]int, error) {
	var samples []int
	for _, v := range verts {
		if _, ok := store.Get(dds.Key{Tag: tagCycMark, A: int64(v)}); ok {
			samples = append(samples, v)
		}
	}
	if cause := store.ReadErr(); cause != nil {
		return nil, fmt.Errorf("core: reading cycle marks: %w", cause)
	}
	return samples, nil
}

// readContracted is the master's assembly of the contracted graph after a
// traverse round. Samples adopt their new two neighbors — a sample whose
// edge record is missing is an error, not neighbors {0, 0}; traversed
// vertices record their parent; vertices never visited by any traversal
// belong to sample-free cycles and survive unchanged.
func readContracted(store dds.StoreBackend, cur *cycleGraph, samples []int, parent map[int]int) (*cycleGraph, error) {
	visited := make(map[int]bool)
	next := &cycleGraph{adj: make(map[int]([2]int))}
	for _, v := range samples {
		e, ok := store.Get(dds.Key{Tag: tagCycEdge, A: int64(v)})
		if !ok {
			return nil, missingRecord(store, "cycle edge", int64(v), 0)
		}
		next.verts = append(next.verts, v)
		next.adj[v] = [2]int{int(e.A), int(e.B)}
		visited[v] = true
	}
	for _, v := range cur.verts {
		if p, ok := store.Get(dds.Key{Tag: tagCycParent, A: int64(v)}); ok {
			parent[v] = int(p.A)
			visited[v] = true
		}
	}
	// An absent parent means "unvisited": only a latched failure tells a
	// lost record apart.
	if cause := store.ReadErr(); cause != nil {
		return nil, fmt.Errorf("core: reading cycle parents: %w", cause)
	}
	for _, v := range cur.verts {
		if !visited[v] {
			next.verts = append(next.verts, v)
			next.adj[v] = cur.adj[v]
		}
	}
	return next, nil
}

// traverse walks from sample v starting at vertex start (a neighbor of v)
// until it reaches a sampled vertex, writing parent records for the
// unsampled vertices it passes. It returns the sampled endpoint.
func traverse(ctx *ampc.Ctx, v, start int) (int, error) {
	prev, cur := v, start
	for {
		if cur == v {
			return v, nil // looped around a sample-free remainder
		}
		if _, marked := ctx.Read(dds.Key{Tag: tagCycMark, A: int64(cur)}); marked {
			return cur, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		ctx.Write(dds.Key{Tag: tagCycParent, A: int64(cur)}, dds.Value{A: int64(v)})
		a, ok := ctx.Read(dds.Key{Tag: tagCycAdj, A: int64(cur)})
		if !ok {
			return 0, fmt.Errorf("core: traversal fell off the cycle at %d (err %v)", cur, ctx.Err())
		}
		next := int(a.A)
		if next == prev {
			next = int(a.B)
		}
		prev, cur = cur, next
	}
}
