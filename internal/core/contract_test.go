package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// refContracted is the map-of-slices contracted graph the driver used before
// the flat CSR form, kept as the reference the flat routine is tested
// against.
type refContracted struct {
	verts []int
	adj   map[int][]wedge
}

// refContractInto is the map-based contraction the flat routine replaced,
// verbatim: the oracle for flatDriver.contract and contractStream.
func refContractInto(gc *refContracted, target map[int]int, m2 []int) *refContracted {
	for v := range m2 {
		if t, ok := target[m2[v]]; ok {
			m2[v] = t
		}
	}
	type pair struct{ a, b int }
	best := make(map[pair]int64)
	for v, adj := range gc.adj {
		tv := target[v]
		for _, e := range adj {
			tu := target[e.to]
			if tv == tu {
				continue
			}
			p := pair{tv, tu}
			if cur, ok := best[p]; !ok || e.w < cur {
				best[p] = e.w
			}
		}
	}
	next := &refContracted{adj: make(map[int][]wedge)}
	seen := make(map[int]bool)
	for p, w := range best {
		next.adj[p.a] = append(next.adj[p.a], wedge{to: p.b, w: w})
		if !seen[p.a] {
			seen[p.a] = true
			next.verts = append(next.verts, p.a)
		}
	}
	sort.Ints(next.verts)
	for v := range next.adj {
		adj := next.adj[v]
		sort.Slice(adj, func(i, j int) bool {
			if adj[i].w != adj[j].w {
				return adj[i].w < adj[j].w
			}
			return adj[i].to < adj[j].to
		})
	}
	return next
}

// asRef converts a flat Gc to the reference form for comparison.
func asRef(gc *contracted) *refContracted {
	ref := &refContracted{adj: make(map[int][]wedge)}
	for i, v := range gc.verts {
		ref.verts = append(ref.verts, int(v))
		for j := gc.offs[i]; j < gc.offs[i+1]; j++ {
			e := wedge{to: int(gc.to[j])}
			if gc.w != nil {
				e.w = gc.w[j]
			}
			ref.adj[int(v)] = append(ref.adj[int(v)], e)
		}
	}
	return ref
}

func sameContracted(t *testing.T, what string, got *contracted, want *refContracted) {
	t.Helper()
	if len(got.offs) != len(got.verts)+1 {
		t.Fatalf("%s: %d offsets for %d vertices", what, len(got.offs), len(got.verts))
	}
	g := asRef(got)
	if len(g.verts) == 0 && len(want.verts) == 0 {
		return
	}
	if !reflect.DeepEqual(g.verts, want.verts) {
		t.Fatalf("%s: verts %v, reference %v", what, g.verts, want.verts)
	}
	if !reflect.DeepEqual(g.adj, want.adj) {
		t.Fatalf("%s: adjacency %v, reference %v", what, g.adj, want.adj)
	}
}

// randomWeightedEdges draws m random non-loop edges on n vertices with
// distinct endpoint pairs; weights repeat across pairs when distinct is
// false, which exercises the (weight, id) tie-break.
func randomWeightedEdges(n, m int, distinct bool, r *rng.RNG) []graph.WeightedEdge {
	seen := map[graph.Edge]bool{}
	var out []graph.WeightedEdge
	for len(out) < m {
		u, v := r.Intn(n), r.Intn(n)
		e := graph.Edge{U: u, V: v}.Canon()
		if u == v || seen[e] {
			continue
		}
		seen[e] = true
		w := int64(len(out) + 1)
		if !distinct {
			w = int64(r.Intn(4))
		}
		out = append(out, graph.WeightedEdge{U: e.U, V: e.V, Weight: w})
	}
	return out
}

func refFromEdges(edges []graph.WeightedEdge, weighted bool) *refContracted {
	ref := &refContracted{adj: make(map[int][]wedge)}
	id := map[int]int{}
	for _, e := range edges {
		w := e.Weight
		if !weighted {
			w = 0
		}
		ref.adj[e.U] = append(ref.adj[e.U], wedge{e.V, w})
		ref.adj[e.V] = append(ref.adj[e.V], wedge{e.U, w})
		id[e.U], id[e.V] = e.U, e.V
	}
	// The identity contraction puts the lists in canonical order.
	return refContractInto(ref, id, nil)
}

// randomTarget draws a contraction map over the live vertices in one of the
// shapes the property test must cover.
func randomTarget(verts []int32, shape int, r *rng.RNG) map[int]int {
	target := make(map[int]int, len(verts))
	for _, v := range verts {
		switch shape {
		case 0: // arbitrary: parallel edges and isolated vertices after contraction
			target[int(v)] = int(verts[r.Intn(len(verts))])
		case 1: // a few hubs, as leader contraction produces
			target[int(v)] = int(verts[r.Intn(1+len(verts)/4)])
		case 2: // everything into one vertex: the graph vanishes
			target[int(v)] = int(verts[0])
		default: // identity: nothing moves
			target[int(v)] = int(v)
		}
	}
	return target
}

// wideTrials is how many trials of each reference test run in the wide
// band: ids of 17 bits, so both halves of a packed key span more than one
// 16-bit digit, with the top id n-1 live.
const wideTrials = 16

// wideN draws a wide-band vertex count in [2^16, 2^17).
func wideN(r *rng.RNG) int { return 1<<16 + r.Intn(1<<16) }

// withTopEdge adds an edge from a random vertex to n-1 when edges lacks one.
func withTopEdge(n int, edges []graph.WeightedEdge, r *rng.RNG) []graph.WeightedEdge {
	for _, e := range edges {
		if e.V == n-1 {
			return edges
		}
	}
	return append(edges, graph.WeightedEdge{U: r.Intn(n - 1), V: n - 1, Weight: int64(len(edges) + 1)})
}

// contractWorkers are the stripe counts every contraction trial runs at: one
// stripe, two, and more stripes than a small graph has vertices.
var contractWorkers = []int{1, 2, 8}

// TestContractMatchesReference drives the flat contraction and the map-based
// reference side by side through chains of random contractions — weighted
// and not, over every target shape — and requires identical vertex lists,
// adjacency order, weights and relabeling after every step. Chaining three
// steps also covers the CSR double buffer and the restored dense maps. The
// last wideTrials trials draw sparse graphs over 17-bit ids.
func TestContractMatchesReference(t *testing.T) {
	r := rng.New(300, 0)
	for trial := 0; trial < 400+wideTrials; trial++ {
		start := *r
		for _, workers := range contractWorkers {
			*r = start // every worker count replays the same trial
			weighted := trial%2 == 0
			n := 2 + r.Intn(40)
			m := r.Intn(n * (n - 1) / 2)
			if m > 3*n {
				m = 3 * n
			}
			if trial >= 400 {
				n, m = wideN(r), 50+r.Intn(300)
			}
			edges := randomWeightedEdges(n, m, trial%4 == 0, r)
			if trial >= 400 {
				edges = withTopEdge(n, edges, r)
			}
			what := fmt.Sprintf("trial %d (n=%d m=%d weighted=%v workers=%d)", trial, n, m, weighted, workers)

			d, err := newFlatDriver(n, weighted, workers)
			if err != nil {
				t.Fatal(err)
			}
			var gc *contracted
			if weighted {
				gc = d.fromWeighted(edges)
			} else {
				plain := make([]graph.Edge, len(edges))
				for i, e := range edges {
					plain[i] = graph.Edge{U: e.U, V: e.V}
				}
				gc = d.fromGraph(graph.MustGraph(n, plain))
			}
			ref := refFromEdges(edges, weighted)
			sameContracted(t, what+" initial", gc, ref)

			m2, refM2 := make([]int, n), make([]int, n)
			for v := range m2 {
				m2[v], refM2[v] = v, v
			}
			for step := 0; step < 3 && len(gc.verts) > 0; step++ {
				target := randomTarget(gc.verts, (trial/4+step)%4, r)
				for v, tv := range target {
					d.target[v] = int32(tv)
				}
				gc = d.contract(gc, m2)
				ref = refContractInto(ref, target, refM2)
				sameContracted(t, fmt.Sprintf("%s step %d", what, step), gc, ref)
				if !reflect.DeepEqual(m2, refM2) {
					t.Fatalf("%s step %d: m2 %v, reference %v", what, step, m2, refM2)
				}
				for v, tv := range d.target {
					if int(tv) != v {
						t.Fatalf("%s step %d: target[%d] = %d left behind", what, step, v, tv)
					}
				}
			}
		}
	}
}

// TestContractMergesAndDedups is the hand-checked case: contracting two
// corners of a weighted square into a third keeps one edge to the fourth,
// at the minimum weight.
func TestContractMergesAndDedups(t *testing.T) {
	d, err := newFlatDriver(4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	gc := d.fromWeighted([]graph.WeightedEdge{{U: 0, V: 1, Weight: 5}, {U: 0, V: 2, Weight: 7}, {U: 1, V: 3, Weight: 2}, {U: 2, V: 3, Weight: 9}})
	if gc.edges() != 4 || gc.records() != 12 {
		t.Fatalf("initial graph: %d edges, %d records", gc.edges(), gc.records())
	}
	m2 := []int{0, 1, 2, 3}
	d.target[1], d.target[2] = 0, 0
	next := d.contract(gc, m2)
	if !reflect.DeepEqual(next.verts, []int32{0, 3}) || next.edges() != 1 {
		t.Fatalf("verts %v with %d edges, want [0 3] with 1", next.verts, next.edges())
	}
	if next.to[0] != 3 || next.w[0] != 2 || next.to[1] != 0 || next.w[1] != 2 {
		t.Fatalf("kept to=%v w=%v, want the weight-2 edge both ways", next.to, next.w)
	}
	if !reflect.DeepEqual(m2, []int{0, 0, 0, 3}) {
		t.Fatalf("m2 = %v", m2)
	}
}

// edgeList replays a fixed multigraph edge list as a stream.
type edgeList struct {
	n     int
	edges []graph.Edge
}

func (s edgeList) N() int { return s.n }
func (s edgeList) M() int { return len(s.edges) }
func (s edgeList) Each(emit func(u, v int)) {
	for _, e := range s.edges {
		emit(e.U, e.V)
	}
}

// TestContractStreamMatchesReference replays multigraph streams (duplicate
// edges included) through contractStream under the identity map — the
// materialize shortcut — and under a random contraction, against the
// reference fed the same edges; odd trials force the in-flight dedup. The
// last wideTrials trials stream over 17-bit ids with the top id n-1 live.
func TestContractStreamMatchesReference(t *testing.T) {
	r := rng.New(301, 0)
	for trial := 0; trial < 60+wideTrials; trial++ {
		start := *r
		for _, workers := range contractWorkers {
			*r = start // every worker count replays the same trial
			n := 2 + r.Intn(50)
			es := graph.StreamGNM(n, r.Intn(6*n), uint64(trial))
			if trial >= 60 {
				n = wideN(r)
				wide := edgeList{n: n}
				graph.StreamGNM(n, 100+r.Intn(300), uint64(trial)).Each(func(u, v int) {
					wide.edges = append(wide.edges, graph.Edge{U: u, V: v})
				})
				top := graph.Edge{U: r.Intn(n - 1), V: n - 1}
				wide.edges = append(wide.edges, top, top) // a live top id, duplicated
				es = wide
			}
			ref := &refContracted{adj: make(map[int][]wedge)}
			id := map[int]int{}
			var live []int32
			es.Each(func(u, v int) {
				ref.adj[u] = append(ref.adj[u], wedge{to: v})
				ref.adj[v] = append(ref.adj[v], wedge{to: u})
				id[u], id[v] = u, v
			})
			for v := 0; v < n; v++ {
				if _, ok := id[v]; ok {
					live = append(live, int32(v))
				}
			}
			d, err := newFlatDriver(n, false, workers)
			if err != nil {
				t.Fatal(err)
			}
			if trial%2 == 1 {
				d.compactAt = 16 // dedup mid-stream, several times over
			}
			m2, refM2 := make([]int, n), make([]int, n)
			for v := range m2 {
				m2[v], refM2[v] = v, v
			}
			sameContracted(t, fmt.Sprintf("trial %d workers %d identity", trial, workers), d.contractStream(es, nil, m2), refContractInto(ref, id, refM2))
			if len(live) == 0 {
				continue
			}
			target := randomTarget(live, trial%3, r)
			for v, tv := range target {
				d.target[v] = int32(tv)
			}
			sameContracted(t, fmt.Sprintf("trial %d workers %d contracted", trial, workers), d.contractStream(es, live, m2), refContractInto(ref, target, refM2))
			if !reflect.DeepEqual(m2, refM2) {
				t.Fatalf("trial %d workers %d: m2 %v, reference %v", trial, workers, m2, refM2)
			}
		}
	}
}

// TestPublishContractedRecords checks the in-round record generation: for
// machine counts that split adjacency runs mid-list, leave machines empty,
// or give one machine everything, the published store holds exactly the
// degree and adjacency records of Gc and nothing else.
func TestPublishContractedRecords(t *testing.T) {
	r := rng.New(302, 0)
	for _, p := range []int{1, 2, 7, 64, 500} {
		d, err := newFlatDriver(40, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		gc := d.fromWeighted(randomWeightedEdges(40, 90, true, r))
		rt := ampc.New(ampc.Config{P: p, S: 1 << 12, Seed: 1})
		if err := publishContracted(rt, gc, 1); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		store := rt.Store()
		if store.Len() != gc.records() {
			t.Fatalf("P=%d: store holds %d pairs, Gc has %d records", p, store.Len(), gc.records())
		}
		for i, v := range gc.verts {
			deg, ok := store.Get(dds.Key{Tag: tagConnDeg, A: int64(v)})
			if want := gc.offs[i+1] - gc.offs[i]; !ok || int(deg.A) != want {
				t.Fatalf("P=%d: degree of %d = %v (present %v), want %d", p, v, deg.A, ok, want)
			}
			for j := gc.offs[i]; j < gc.offs[i+1]; j++ {
				a, ok := store.Get(dds.Key{Tag: tagConnAdj, A: int64(v), B: int64(j - gc.offs[i])})
				if !ok || a.A != int64(gc.to[j]) || a.B != gc.w[j] {
					t.Fatalf("P=%d: adjacency (%d,%d) = %v (present %v), want (%d,%d)", p, v, j-gc.offs[i], a, ok, gc.to[j], gc.w[j])
				}
			}
		}
		rt.Close()
	}
}

// contractFixture returns a driver holding a GNM graph and a leader-style
// contraction map over it: about a third of the vertices are leaders and
// every other vertex joins its smallest leader neighbor, if it has one.
func contractFixture(tb testing.TB, n, m, workers int) (*flatDriver, *contracted, func()) {
	g := graph.GNM(n, m, rng.New(303, 0))
	d, err := newFlatDriver(n, false, workers)
	if err != nil {
		tb.Fatal(err)
	}
	gc := d.fromGraph(g)
	setTargets := func() {
		for _, v := range gc.verts {
			if v%3 == 0 {
				continue
			}
			for _, u := range g.Neighbors(int(v)) {
				if u%3 == 0 {
					d.target[v] = int32(u)
					break
				}
			}
		}
	}
	return d, gc, setTargets
}

// TestContractReusesBuffers pins the allocation contract: once the first
// contraction has sized the driver's buffers, a contraction of the same
// graph allocates nothing at one worker — the per-phase cost is O(1)
// allocations, not O(n') maps and slices — and, striped over two workers,
// only the fan-out's fixed handful, the same at every graph size. The
// streamed contraction keeps the same contract with its in-flight
// compaction forced.
func TestContractReusesBuffers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var perSize []float64
		for _, n := range []int{5000, 20000} {
			plain := contractAllocs(t, n, workers, false)
			streamed := contractAllocs(t, n, workers, true)
			if workers == 1 && plain+streamed > 0 {
				t.Fatalf("n=%d: a warmed-up contraction allocates %.0f times, streamed %.0f, want 0", n, plain, streamed)
			}
			perSize = append(perSize, plain, streamed)
		}
		t.Logf("workers=%d: allocations per contraction (plain, streamed at n=5000, then n=20000): %v", workers, perSize)
		if perSize[0] != perSize[2] || perSize[1] != perSize[3] || slices.Max(perSize) > 64 {
			t.Fatalf("workers=%d: warmed-up contractions allocate %v times (plain, streamed at n=5000, then n=20000), want a small count that does not grow with n", workers, perSize)
		}
	}
}

// contractAllocs returns the allocations of one warmed-up contraction of a
// GNM graph on n vertices, or of a streamed one with compaction forced.
func contractAllocs(t *testing.T, n, workers int, streamed bool) float64 {
	m2 := make([]int, n)
	if !streamed {
		d, gc, setTargets := contractFixture(t, n, 4*n, workers)
		return warmAllocs(func() {
			for v := range m2 {
				m2[v] = v
			}
			setTargets()
			if next := d.contract(gc, m2); next.edges() == 0 || next.edges() >= gc.edges() {
				t.Fatalf("contraction kept %d of %d edges", next.edges(), gc.edges())
			}
		})
	}
	es := graph.StreamGNM(n, 8*n, 304)
	d, err := newFlatDriver(n, false, workers)
	if err != nil {
		t.Fatal(err)
	}
	d.compactAt = 1024
	live := make([]int32, n)
	for v := range live {
		live[v] = int32(v)
	}
	return warmAllocs(func() {
		for v := range m2 {
			m2[v] = v
			d.target[v] = int32(v - v%3) // every vertex joins a multiple of 3
		}
		if next := d.contractStream(es, live, m2); next.edges() == 0 || 3*len(next.verts) > n+2 {
			t.Fatalf("streamed contraction left %d vertices, %d edges", len(next.verts), next.edges())
		}
	})
}

// warmAllocs runs f once to size the buffers, then returns its allocations
// per run.
func warmAllocs(f func()) float64 {
	f()
	return testing.AllocsPerRun(5, f)
}

func BenchmarkContract(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			d, gc, setTargets := contractFixture(b, 100000, 400000, workers)
			m2 := make([]int, 100000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setTargets()
				if next := d.contract(gc, m2); next.edges() == 0 {
					b.Fatal("contraction emptied the graph")
				}
			}
		})
	}
}

// BenchmarkContractStream is the first contraction of the benchmark's
// streamed multigraph cell (10^4 vertices, 100 edges per vertex) at a fifth
// of its edges: every vertex joins a multiple of 3.
func BenchmarkContractStream(b *testing.B) {
	const n = 10000
	es := graph.StreamGNM(n, 200000, 1)
	live := make([]int32, n)
	m2 := make([]int, n)
	for v := range live {
		live[v] = int32(v)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			d, err := newFlatDriver(n, false, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for v := range m2 {
					m2[v] = v
					d.target[v] = int32(v - v%3)
				}
				if next := d.contractStream(es, live, m2); next.edges() == 0 {
					b.Fatal("contraction emptied the graph")
				}
			}
		})
	}
}

// hugeStream claims more vertices than the driver's packed 31-bit ids hold.
type hugeStream struct{}

func (hugeStream) N() int                   { return int(int64(1) << 31) }
func (hugeStream) M() int                   { return 1 }
func (hugeStream) Each(emit func(u, v int)) { emit(0, 1) }

func TestVertexRangeGuard(t *testing.T) {
	_, err := ConnectivityStream(context.Background(), hugeStream{}, Options{})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("2^31 vertices: got %v, want ErrInvalidOptions", err)
	}
}
