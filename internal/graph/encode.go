package graph

import "ampc/internal/dds"

// DDS encoding of graphs, shared by all AMPC algorithms. Every record is a
// constant-size key-value pair as the model requires:
//
//	(TagMeta, 0, 0)  -> (n, m)
//	(TagDeg,  v, 0)  -> (deg(v), 0)
//	(TagAdj,  v, i)  -> (u, w)    the i-th neighbor of v, with edge weight w
//	                              (w = 0 for unweighted graphs)
//
// EncodeRanked is the variant for algorithms that fix a vertex permutation.
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
//	(TagDeg, v, 0)  -> (deg(v), pi[v])
//	(TagAdj, v, i)  -> (u, pi[u])   v's neighbor of i-th smallest rank
//
// The lists come out sorted without sorting: visiting the vertices by
// ascending rank and appending each to its neighbors' lists fills every list
// in rank order.
func EncodeRanked(g *Graph, pi []int) []dds.KV {
	n := g.N()
	byRank := make([]int, n)
	for v, rank := range pi {
		byRank[rank] = v
	}
	// ranked is g.adj with every list reordered by rank, filled through a
	// per-vertex cursor.
	ranked := make([]int, len(g.adj))
	next := append([]int(nil), g.offs[:n]...)
	for _, u := range byRank {
		for _, v := range g.Neighbors(u) {
			ranked[next[v]] = u
			next[v]++
		}
	}
	pairs := make([]dds.KV, 0, 1+n+len(ranked))
	pairs = append(pairs, dds.KV{Key: MetaKey(), Value: dds.Value{A: int64(n), B: int64(g.M())}})
	for v := 0; v < n; v++ {
		pairs = append(pairs, dds.KV{Key: DegKey(v), Value: dds.Value{A: int64(g.Deg(v)), B: int64(pi[v])}})
		for i, u := range ranked[g.offs[v]:g.offs[v+1]] {
			pairs = append(pairs, dds.KV{Key: AdjKey(v, i), Value: dds.Value{A: int64(u), B: int64(pi[u])}})
		}
	}
	return pairs
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
