package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

// misIterConst is the c of Lemma 5.2's iteration bound c/ε, as this test
// asserts it. Measured maximum of iterations·ε over the sweep below: 0.7.
const misIterConst = 2.0

// misQueryConst bounds the total query work of Proposition 5.1 as c(n+m).
// The paper counts one query per visited vertex; the runtime charges every
// read — a visit's degree record plus one π-ordered adjacency record per
// earlier neighbor it gets to — so c is that per-visit constant. Measured
// maximum over the sweep below: 2.31 (gnm, ε = 0.5, seed 3).
const misQueryConst = 2.5

// TestMISPaperBounds holds MIS to the paper's bounds over seed × generator
// × ε: at most c/ε settle iterations (Lemma 5.2), and no machine issuing
// more queries in a round than the runtime's per-machine budget (Lemma 4.3;
// measured maximum 0.28 of the budget). Both are asserted, not printed.
func TestMISPaperBounds(t *testing.T) {
	gens := []struct {
		name string
		gen  func(n, m int, r *rng.RNG) *graph.Graph
	}{{"gnm", graph.GNM}, {"powerlaw", graph.PowerLaw}}
	for _, gen := range gens {
		for _, eps := range []float64{0.3, 0.5, 0.7} {
			for seed := uint64(1); seed <= 3; seed++ {
				g := gen.gen(20000, 80000, rng.New(seed, 7))
				opts := Options{Seed: seed, Epsilon: eps}
				res, err := MIS(context.Background(), g, opts)
				if err != nil {
					t.Fatalf("%s ε=%.1f seed=%d: %v", gen.name, eps, seed, err)
				}
				rt := misRuntime(context.Background(), g, opts.withDefaults())
				budget := rt.Budget()
				rt.Close()
				tel := res.Telemetry
				if limit := int(misIterConst / eps); tel.Phases > limit {
					t.Errorf("%s ε=%.1f seed=%d: %d iterations, Lemma 5.2 allows %d (c/ε, c = %.1f)",
						gen.name, eps, seed, tel.Phases, limit, misIterConst)
				}
				if ratio := float64(tel.TotalQueries) / float64(g.N()+g.M()); ratio > misQueryConst {
					t.Errorf("%s ε=%.1f seed=%d: %d queries = %.2f(n+m), Prop. 5.1 allows %.1f(n+m)",
						gen.name, eps, seed, tel.TotalQueries, ratio, misQueryConst)
				}
				if tel.MaxMachineQueries > budget {
					t.Errorf("%s ε=%.1f seed=%d: a machine issued %d queries in a round, over the per-machine budget %d",
						gen.name, eps, seed, tel.MaxMachineQueries, budget)
				}
			}
		}
	}
}
