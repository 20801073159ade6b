package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ampc/internal/dds"
)

// DDS encoding of graphs, shared by all AMPC algorithms. Every record is a
// constant-size key-value pair as the model requires:
//
//	(TagMeta, 0, 0)  -> (n, m)
//	(TagDeg,  v, 0)  -> (deg(v), 0)
//	(TagAdj,  v, i)  -> (u, w)    the i-th neighbor of v, with edge weight w
//	                              (w = 0 for unweighted graphs)
//
// EncodeRanked is the variant for algorithms that fix a vertex permutation;
// Ranked writes the same records by ordinal range, so machines publish it
// block by block with no pair list.
//
// Tags below 16 are reserved for this encoding; algorithm packages use
// higher tags for their own records.
const (
	TagMeta uint8 = 1
	TagDeg  uint8 = 2
	TagAdj  uint8 = 3

	// TagAlgoBase is the first tag free for algorithm-private records.
	TagAlgoBase uint8 = 16
)

// MetaKey returns the key of the (n, m) metadata record.
func MetaKey() dds.Key { return dds.Key{Tag: TagMeta} }

// DegKey returns the key of v's degree record.
func DegKey(v int) dds.Key { return dds.Key{Tag: TagDeg, A: int64(v)} }

// AdjKey returns the key of v's i-th adjacency record.
func AdjKey(v, i int) dds.Key { return dds.Key{Tag: TagAdj, A: int64(v), B: int64(i)} }

// Encode serializes g into DDS pairs under the standard encoding.
func Encode(g *Graph) []dds.KV {
	pairs := make([]dds.KV, 0, 1+g.N()+2*g.M())
	pairs = append(pairs, dds.KV{Key: MetaKey(), Value: dds.Value{A: int64(g.N()), B: int64(g.M())}})
	for v := 0; v < g.N(); v++ {
		pairs = append(pairs, dds.KV{Key: DegKey(v), Value: dds.Value{A: int64(g.Deg(v))}})
		for i, u := range g.Neighbors(v) {
			pairs = append(pairs, dds.KV{Key: AdjKey(v, i), Value: dds.Value{A: int64(u)}})
		}
	}
	return pairs
}

// EncodeRanked serializes g for the §5 query processes, which explore a
// neighborhood in the order of a priority permutation pi (pi[v] is v's rank):
// every adjacency list is published already ordered by rank, with the ranks
// inline, so a machine reads one record per neighbor it needs and none to
// learn who comes first.
//
//	(TagMeta, 0, 0) -> (n, m)
//	(TagDeg, v, 0)  -> (deg(v), pi[v])
//	(TagAdj, v, i)  -> (u, pi[u])   v's neighbor of i-th smallest rank
//
// It collects Ranked's records in ordinal order; publishing rounds emit
// them by block instead.
func EncodeRanked(g *Graph, pi []int) []dds.KV {
	r := NewRanked(g, pi)
	pairs := make(kvList, 0, r.Records())
	r.Emit(&pairs, 0, r.Records())
	return pairs
}

// kvList collects records as pairs.
type kvList []dds.KV

func (l *kvList) Write(k dds.Key, v dds.Value) { *l = append(*l, dds.KV{Key: k, Value: v}) }

// Ranked is g's ranked encoding (EncodeRanked) laid out by record ordinal:
// the metadata record is ordinal 0, and vertex v's degree record ordinal
// 1+v+offs[v], followed by its adjacency records. Emit writes any range of
// ordinals straight from the rank-ordered lists, so each machine of a
// publishing round generates its own block and no pair list is built.
type Ranked struct {
	g  *Graph
	pi []int
	// adj is g's adjacency with every list reordered by rank, in g's
	// offsets.
	adj []int32
}

// NewRanked orders g's adjacency lists by the ranks pi. The lists come out
// sorted without sorting: visiting the vertices by ascending rank and
// appending each to its neighbors' lists fills every list in rank order.
// Vertex ids must fit int32.
func NewRanked(g *Graph, pi []int) *Ranked {
	n := g.N()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: NewRanked of %d vertices, more than an int32 id holds", n))
	}
	byRank := make([]int32, n)
	for v, rank := range pi {
		byRank[rank] = int32(v)
	}
	adj := make([]int32, len(g.adj))
	next := slices.Clone(g.offs[:n])
	for _, u := range byRank {
		for _, v := range g.Neighbors(int(u)) {
			adj[next[v]] = u
			next[v]++
		}
	}
	return &Ranked{g: g, pi: pi, adj: adj}
}

// Records returns the number of records: 1 + n + 2m.
func (r *Ranked) Records() int { return 1 + r.g.N() + len(r.adj) }

// Emit writes records [lo, hi) to w in ordinal order: the records
// EncodeRanked(g, pi)[lo:hi] holds. hi is clamped to Records().
func (r *Ranked) Emit(w dds.RecordWriter, lo, hi int) {
	hi = min(hi, r.Records())
	if lo >= hi {
		return
	}
	g, ord := r.g, lo
	if ord == 0 {
		w.Write(MetaKey(), dds.Value{A: int64(g.N()), B: int64(g.M())})
		ord++
	}
	// The vertex whose records cover ordinal ord: the last v with
	// 1+v+offs[v] <= ord.
	v := sort.Search(g.N(), func(v int) bool { return 1+v+g.offs[v] > ord }) - 1
	for ; ord < hi; v++ {
		first, deg := g.offs[v], g.Deg(v)
		at := 1 + v + first // the degree record's ordinal
		if ord == at {
			w.Write(DegKey(v), dds.Value{A: int64(deg), B: int64(r.pi[v])})
			ord++
		}
		for i := ord - at - 1; i < deg && ord < hi; i++ {
			u := r.adj[first+i]
			w.Write(AdjKey(v, i), dds.Value{A: int64(u), B: int64(r.pi[u])})
			ord++
		}
	}
}

// EncodeWeighted serializes g with edge weights in the adjacency values.
func EncodeWeighted(g *WeightedGraph) []dds.KV {
	pairs := make([]dds.KV, 0, 1+g.N()+2*g.M())
	pairs = append(pairs, dds.KV{Key: MetaKey(), Value: dds.Value{A: int64(g.N()), B: int64(g.M())}})
	for v := 0; v < g.N(); v++ {
		pairs = append(pairs, dds.KV{Key: DegKey(v), Value: dds.Value{A: int64(g.Deg(v))}})
		for i, u := range g.Neighbors(v) {
			pairs = append(pairs, dds.KV{
				Key:   AdjKey(v, i),
				Value: dds.Value{A: int64(u), B: g.Weight(v, u)},
			})
		}
	}
	return pairs
}

// Decode reconstructs a Graph from a store holding the standard encoding.
// It is a test helper and master-side utility; reads are not budgeted. Any
// store backend works — in-memory or file-backed. A missing degree or
// adjacency record is an error, never a silently isolated vertex.
func Decode(s dds.StoreBackend) (*Graph, error) {
	meta, ok := s.Get(MetaKey())
	if !ok {
		return nil, errMissingMeta
	}
	n := int(meta.A)
	var edges []Edge
	for v := 0; v < n; v++ {
		d, ok := s.Get(DegKey(v))
		if !ok {
			return nil, errTruncatedAdjacency
		}
		for i := 0; i < int(d.A); i++ {
			a, ok := s.Get(AdjKey(v, i))
			if !ok {
				return nil, errTruncatedAdjacency
			}
			if v < int(a.A) {
				edges = append(edges, Edge{v, int(a.A)})
			}
		}
	}
	return NewGraph(n, edges)
}

var (
	errMissingMeta        = errorString("graph: store is missing the metadata record")
	errTruncatedAdjacency = errorString("graph: adjacency records truncated")
)

type errorString string

func (e errorString) Error() string { return string(e) }
