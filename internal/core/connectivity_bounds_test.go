package core

import (
	"context"
	"math"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

// connPhaseSlope and connPhaseOffset are the c₁ and c₂ of Theorem 3's phase
// bound c₁·⌈log₂ log_{m/n} n⌉ + c₂, as this test asserts it. Over the sweep
// below the loglog term is 3 at m/n = 4 and 2 at m/n = 16; measured phases
// are 6–8 and 6–7, so the largest phases − c₁·⌈log₂ log_{m/n} n⌉ is 3.
const (
	connPhaseSlope  = 2
	connPhaseOffset = 4
)

// TestConnectivityPaperBounds holds connectivity to the paper's bounds over
// seed × generator × ε × m/n at n = 2·10⁴: at most c₁·⌈log₂ log_{m/n} n⌉ + c₂
// contraction phases (Theorem 3, with the sparse start's extra phases in
// c₂), and no machine issuing more queries in a round than the runtime's
// per-machine budget (Lemma 6.1; measured maximum 0.50 of the budget). Both
// are asserted, not printed.
func TestConnectivityPaperBounds(t *testing.T) {
	const n = 20000
	gens := []struct {
		name string
		gen  func(n, m int, r *rng.RNG) *graph.Graph
	}{{"gnm", graph.GNM}, {"powerlaw", graph.PowerLaw}}
	for _, gen := range gens {
		for _, ratio := range []int{4, 16} {
			loglog := int(math.Ceil(math.Log2(math.Log(n) / math.Log(float64(ratio)))))
			limit := connPhaseSlope*loglog + connPhaseOffset
			for _, eps := range []float64{0.3, 0.5, 0.7} {
				for seed := uint64(1); seed <= 3; seed++ {
					g := gen.gen(n, ratio*n, rng.New(seed, 7))
					opts := Options{Seed: seed, Epsilon: eps}
					res, err := Connectivity(context.Background(), g, opts)
					if err != nil {
						t.Fatalf("%s m/n=%d ε=%.1f seed=%d: %v", gen.name, ratio, eps, seed, err)
					}
					rt := opts.withDefaults().newRuntime(context.Background(), g.N(), g.M())
					budget := rt.Budget()
					rt.Close()
					tel := res.Telemetry
					if tel.Phases > limit {
						t.Errorf("%s m/n=%d ε=%.1f seed=%d: %d phases, Theorem 3 allows %d (%d·%d + %d)",
							gen.name, ratio, eps, seed, tel.Phases, limit, connPhaseSlope, loglog, connPhaseOffset)
					}
					if tel.MaxMachineQueries > budget {
						t.Errorf("%s m/n=%d ε=%.1f seed=%d: a machine issued %d queries in a round, over the per-machine budget %d",
							gen.name, ratio, eps, seed, tel.MaxMachineQueries, budget)
					}
				}
			}
		}
	}
}
