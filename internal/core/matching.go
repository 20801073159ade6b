package core

import (
	"context"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
)

// DDS tags private to the maximal matching algorithm.
const (
	tagMatchEdge   = graph.TagAlgoBase + 32 // (tag, e, 0) -> (u, v) endpoints of edge e
	tagMatchInc    = graph.TagAlgoBase + 33 // (tag, v, i) -> (e, rank of e): v's incident edge of i-th smallest rank
	tagMatchStatus = graph.TagAlgoBase + 35 // (tag, e, 0) -> (+1 matched / -1 not, 0)
)

// MatchingResult reports the outcome and cost of the AMPC maximal matching
// algorithm.
type MatchingResult struct {
	// Matched is the membership vector over g.Edges(): the greedy maximal
	// matching under the run's random edge permutation.
	Matched []bool
	// Pi is the edge priority permutation used; the output equals
	// graph.GreedyMatching(g, Pi) exactly.
	Pi []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// MaximalMatching computes a maximal matching in O(1/ε) iterations w.h.p.
// It is the paper's §10 future-work item, solved with the §5 machinery:
// greedy matching over a random edge permutation is the lexicographically-
// first MIS of the line graph, so the truncated Yoshida–Nguyen–Onak query
// process applies verbatim with "neighbors of edge e" meaning the edges
// sharing an endpoint with e. Proposition 5.1's near-linear total work and
// Lemma 5.2's O(1/ε) iteration bound carry over unchanged.
func MaximalMatching(ctx context.Context, g *graph.Graph, opts Options) (MatchingResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MatchingResult{}, err
	}
	m := g.M()
	_, space := opts.params(m+1, m)
	// A line-graph neighborhood is both endpoints' incident edge lists, up
	// to 2Δ edges: afford each its list read and its status read, plus the
	// usual c·S.
	opts.budgetFactor = ampc.DefaultBudgetFactor + (4*g.MaxDeg()+16)/space
	rt := opts.newRuntime(ctx, m+1, m)
	defer rt.Close()
	driver := opts.driverRNG(12)

	pi := driver.Perm(m)
	if err := rt.AddStatic("match-publish", encodeLineGraph(g, pi)); err != nil {
		return MatchingResult{}, err
	}

	s := settler{name: "match", tag: tagMatchStatus, state: make([]int32, m)}
	settled := s.state // 0 unknown, +1 matched, -1 not matched
	matchedV := make([]bool, g.N())
	iters, err := s.run(ctx, rt, opts, driver,
		func(q *queryMachine, e int) int32 { return matchEval(q, e, int64(pi[e])) },
		// The removal rule: edges adjacent to a matched edge leave the graph
		// unmatched.
		func() {
			for e, edge := range g.Edges() {
				if settled[e] == 1 {
					matchedV[edge.U], matchedV[edge.V] = true, true
				}
			}
			for e, edge := range g.Edges() {
				if settled[e] == 0 && (matchedV[edge.U] || matchedV[edge.V]) {
					settled[e] = -1
				}
			}
		})
	if err != nil {
		return MatchingResult{}, err
	}

	matched := make([]bool, m)
	for e := range matched {
		matched[e] = settled[e] == 1
	}
	return MatchingResult{Matched: matched, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// encodeLineGraph serializes what the query process reads of g's line graph
// under the edge priorities pi: every edge's endpoints and, per vertex, its
// incident edges ordered by rank with the ranks inline (visiting the edges
// by ascending rank fills every list in rank order).
func encodeLineGraph(g *graph.Graph, pi []int) []dds.KV {
	byRank := make([]int, len(pi))
	for e, rank := range pi {
		byRank[rank] = e
	}
	pairs := make([]dds.KV, 0, 3*len(pi))
	filled := make([]int64, g.N())
	for rank, e := range byRank {
		u, v := int64(g.Edges()[e].U), int64(g.Edges()[e].V)
		inc := dds.Value{A: int64(e), B: int64(rank)}
		pairs = append(pairs,
			dds.KV{Key: dds.Key{Tag: tagMatchEdge, A: int64(e)}, Value: dds.Value{A: u, B: v}},
			dds.KV{Key: dds.Key{Tag: tagMatchInc, A: u, B: filled[u]}, Value: inc},
			dds.KV{Key: dds.Key{Tag: tagMatchInc, A: v, B: filled[v]}, Value: inc},
		)
		filled[u]++
		filled[v]++
	}
	return pairs
}

// matchEval determines whether edge e, of the given rank, joins the greedy
// matching, returning +1, -1, or 0 (truncated). e's earlier neighbors in the
// line graph are the edges ahead of it in its two endpoints' incident lists,
// so the scan merges the two lists lazily, earliest first, and ends when
// both have reached e itself. e sits in both lists, so neither is ever read
// past its end.
func matchEval(q *queryMachine, e int, rank int64) int32 {
	if s, done := q.enter(e); done {
		return s
	}
	ends, ok := q.readStatic(dds.Key{Tag: tagMatchEdge, A: int64(e)})
	if !ok {
		return 0
	}
	end := [2]int64{ends.A, ends.B}
	var at [2]int64       // the cursor into each endpoint's list
	var head [2]dds.Value // the record under it
	for side := range end {
		if head[side], ok = q.readStatic(dds.Key{Tag: tagMatchInc, A: end[side]}); !ok {
			return 0
		}
	}
	for {
		side := 0
		if head[1].B < head[0].B {
			side = 1
		}
		if head[side].B >= rank {
			return q.settle(e, 1) // no earlier neighbor is matched
		}
		switch matchEval(q, int(head[side].A), head[side].B) {
		case 1:
			return q.settle(e, -1)
		case 0:
			return 0
		}
		at[side]++
		if head[side], ok = q.readStatic(dds.Key{Tag: tagMatchInc, A: end[side], B: at[side]}); !ok {
			return 0
		}
	}
}
