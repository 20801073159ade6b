package core

import (
	"context"

	"ampc/internal/ampc"
	"ampc/internal/graph"
)

// DDS tag private to the MIS algorithm.
const tagMISStatus = graph.TagAlgoBase + 17 // (tag, v, 0) -> (+1 in MIS / -1 not, 0)

// MISResult reports the outcome and cost of the AMPC MIS algorithm.
type MISResult struct {
	// InMIS is the membership vector of the computed maximal independent
	// set: the lexicographically-first MIS under the run's random priority
	// permutation.
	InMIS []bool
	// Pi is the priority permutation used: Pi[v] is v's rank, and the
	// output equals graph.LFMIS(g, Pi) exactly.
	Pi []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// MIS computes a maximal independent set in O(1/ε) iterations w.h.p.
// (§5, Theorem 2). It fixes a random permutation π and finds the
// lexicographically-first MIS under π by running the truncated Yoshida–
// Nguyen–Onak query process (Algorithms 3–5) for every unsettled vertex in
// parallel each round: a vertex's machine adaptively explores the relevant
// part of its neighborhood, recursing into lower-priority neighbors, with
// the number of recursive visits capped by the machine's space S (the
// paper's capacity c). Vertices whose query cost exceeds the cap stay
// unsettled and retry in the next iteration against the statuses settled so
// far (Lemma 5.2 bounds the iterations by O(1/ε)).
//
// Communication accounting: the paper counts one query per visited vertex,
// with Algorithm 5 sorting the visited vertex's neighbor list by π locally.
// Here the lists are published already in π order with the ranks inline
// (graph.Ranked) and every DDS read is charged individually, so a
// visit costs one status read (from the second iteration on), one
// degree-and-rank read, and one adjacency read per earlier neighbor the
// recursion actually gets to, plus the one that shows the earlier prefix has
// ended — never a read for a neighbor ranked after that. A neighbor settled
// in an earlier iteration costs its adjacency read and its status read, so
// the budget affords 2Δ reads on top of the usual c·S: one visit always
// fits, and inputs with Δ > S still run.
func MIS(ctx context.Context, g *graph.Graph, opts Options) (MISResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MISResult{}, err
	}
	n := g.N()
	rt := misRuntime(ctx, g, opts)
	defer rt.Close()
	driver := opts.driverRNG(4)

	// Publish the graph with every adjacency list ordered by the priority
	// permutation and the ranks inline.
	pi := driver.Perm(n)
	if err := publishRanked(rt, "mis-publish", g, pi); err != nil {
		return MISResult{}, err
	}

	s := settler{name: "mis", tag: tagMISStatus, state: make([]int32, n)}
	settled := s.state // 0 unknown, +1 in MIS, -1 not in MIS
	iters, err := s.run(ctx, rt, opts, driver, misEval,
		// The Algorithm 4 removal rule — neighbors of vertices that joined
		// the MIS leave the graph as non-members (an MPC compaction step in
		// the paper).
		func() {
			for v, st := range settled {
				if st != 1 {
					continue
				}
				for _, u := range g.Neighbors(v) {
					if settled[u] == 0 {
						settled[u] = -1
					}
				}
			}
		})
	if err != nil {
		return MISResult{}, err
	}

	in := make([]bool, n)
	for v := range in {
		in[v] = settled[v] == 1
	}
	return MISResult{InMIS: in, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// misRuntime provisions MIS's runtime: the usual shape for n vertices and m
// edges, with the budget raised to afford a high-degree visit.
func misRuntime(ctx context.Context, g *graph.Graph, opts Options) *ampc.Runtime {
	_, space := opts.params(g.N(), g.M())
	opts.budgetFactor = ampc.DefaultBudgetFactor + (2*g.MaxDeg()+16)/space
	return opts.newRuntime(ctx, g.N(), g.M())
}

// misEval determines f(v, π) if possible (Algorithm 5), returning +1 (in
// MIS), -1 (not), or 0 (unknown: the visit capacity or the machine budget
// ran out). v is in the MIS exactly if none of its earlier neighbors is, so
// the scan walks v's list — earliest first — only as far as the first MIS
// member or the first neighbor ranked after v.
func misEval(q *queryMachine, v int) int32 {
	if s, done := q.enter(v); done {
		return s
	}
	d, ok := q.readStatic(graph.DegKey(v))
	if !ok {
		return 0
	}
	for i := 0; i < int(d.A); i++ {
		a, ok := q.readStatic(graph.AdjKey(v, i))
		if !ok {
			return 0
		}
		if a.B > d.B {
			break
		}
		switch misEval(q, int(a.A)) {
		case 1:
			return q.settle(v, -1)
		case 0:
			return 0 // truncated below; v stays unknown this iteration
		}
	}
	return q.settle(v, 1)
}
