package core

import (
	"context"
	"math"

	"ampc/internal/graph"
)

// TwoCycleResult reports the outcome and cost of the AMPC 2-Cycle algorithm.
type TwoCycleResult struct {
	// SingleCycle is true when the input is one n-cycle, false for two.
	SingleCycle bool
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// TwoCycle solves the 2-Cycle problem (Algorithm 2, Theorem 1): it shrinks
// the input with O(1/ε) iterations of Shrink and decides the remaining
// O(n^ε)-size instance on a single machine. Round complexity is O(1/ε)
// w.h.p. — constant for fixed ε — which is the paper's refutation of the
// 2-Cycle conjecture inside AMPC.
func TwoCycle(ctx context.Context, g *graph.Graph, opts Options) (TwoCycleResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return TwoCycleResult{}, err
	}
	n := g.N()
	rt := opts.newRuntime(ctx, n, g.M())
	defer rt.Close()
	cg, err := cycleGraphOf(g)
	if err != nil {
		return TwoCycleResult{}, err
	}
	driver := opts.driverRNG(0)

	t := shrinkIterations(opts.Epsilon)
	res, err := shrink(rt, cg, n, opts.Epsilon, t, driver)
	if err != nil {
		return TwoCycleResult{}, err
	}

	// Final step: the surviving graph has O(n^ε) vertices w.h.p. and fits
	// on a single machine, which counts the cycles locally.
	labels := res.g.components()
	distinct := make(map[int]bool)
	for _, l := range labels {
		distinct[l] = true
	}
	return TwoCycleResult{
		SingleCycle: len(distinct) == 1,
		Telemetry:   telemetryFrom(rt, res.iterations),
	}, nil
}

// shrinkIterations returns the O(1/ε) iteration count of Algorithm 2: each
// iteration shrinks cycle lengths by n^{ε/2}, so 2(1-ε)/ε iterations reach
// size O(n^ε); one extra iteration absorbs rounding.
func shrinkIterations(eps float64) int {
	return int(math.Ceil(2*(1-eps)/eps)) + 1
}
