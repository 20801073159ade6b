package core

import (
	"context"
	"slices"

	"ampc/internal/ampc"
	"ampc/internal/graph"
)

// DDS tag private to the coloring algorithm.
const tagColorStatus = graph.TagAlgoBase + 39 // (tag, v, 0) -> (color + 1, 0)

// ColoringResult reports the outcome and cost of the AMPC greedy coloring
// algorithm.
type ColoringResult struct {
	// Color is the proper vertex coloring: the greedy coloring under the
	// run's random permutation, so at most MaxDeg+1 colors are used.
	Color []int
	// Pi is the priority permutation used; the output equals
	// graph.GreedyColoring(g, Pi) exactly.
	Pi []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// GreedyColoring computes a (Δ+1) vertex coloring — another §10 future-work
// item — by evaluating the greedy coloring over a random permutation with
// the §5 truncated query process. The recursion is the same as MIS's except
// that a vertex needs the colors of *all* earlier neighbors (no early exit
// on a single MIS member), after which it takes the smallest free color.
// Settled colors persist in the DDS across iterations exactly like MIS
// statuses, and the O(1/ε) iteration argument of Lemma 5.2 carries over.
func GreedyColoring(ctx context.Context, g *graph.Graph, opts Options) (ColoringResult, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ColoringResult{}, err
	}
	n := g.N()
	_, space := opts.params(n, g.M())
	// Afford a visit its worst case: an adjacency read and a status read for
	// each of up to Δ settled earlier neighbors.
	opts.budgetFactor = ampc.DefaultBudgetFactor + (2*g.MaxDeg()+16)/space
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()
	driver := opts.driverRNG(13)

	pi := driver.Perm(n)
	if err := publishRanked(rt, "color-publish", g, pi); err != nil {
		return ColoringResult{}, err
	}

	// A vertex's status is its color plus one.
	s := settler{name: "color", tag: tagColorStatus, state: make([]int32, n)}
	iters, err := s.run(ctx, rt, opts, driver, colorEval, nil)
	if err != nil {
		return ColoringResult{}, err
	}

	color := make([]int, n)
	for v := range color {
		color[v] = int(s.state[v]) - 1
	}
	return ColoringResult{Color: color, Pi: pi, Telemetry: telemetryFrom(rt, iters)}, nil
}

// colorEval determines v's greedy color, returning it plus one, or 0 when
// the visit capacity or machine budget ran out. Only earlier-priority
// neighbors constrain v — in the sequential greedy process later neighbors
// pick their colors after v — so the scan reads exactly the earlier prefix
// of v's list. The colors seen are marked in a frame of q.used pushed for
// this visit: deg(v)+1 slots always hold a free color, and the recursion
// pushes its own frames above.
func colorEval(q *queryMachine, v int) int32 {
	if s, done := q.enter(v); done {
		return s
	}
	d, ok := q.readStatic(graph.DegKey(v))
	if !ok {
		return 0
	}
	deg := int(d.A)
	base := len(q.used)
	q.used = slices.Grow(q.used, deg+1)[:base+deg+1]
	clear(q.used[base:])
	for i := 0; i < deg; i++ {
		a, ok := q.readStatic(graph.AdjKey(v, i))
		if ok && a.B > d.B {
			break
		}
		var s int32 // stays 0 if the read was truncated
		if ok {
			s = colorEval(q, int(a.A))
		}
		if s == 0 {
			q.used = q.used[:base]
			return 0
		}
		if c := int(s) - 1; c <= deg {
			q.used[base+c] = true
		}
	}
	// All earlier neighbors colored: take the smallest free color.
	c := 0
	for q.used[base+c] {
		c++
	}
	q.used = q.used[:base]
	return q.settle(v, int32(c)+1)
}
