package core

import (
	"context"
	"math"
	"testing"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Epsilon != DefaultEpsilon {
		t.Fatalf("Epsilon default = %v", o.Epsilon)
	}
	if o.spaceFactor != defaultSpaceFactor {
		t.Fatalf("spaceFactor default = %v", o.spaceFactor)
	}
}

func TestOptionsValidation(t *testing.T) {
	for _, eps := range []float64{-0.1, 1.0, 2.5} {
		if err := (Options{Epsilon: eps}).validate(); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
	if err := (Options{Epsilon: 0.5}).validate(); err != nil {
		t.Errorf("epsilon 0.5 rejected: %v", err)
	}
}

func TestParamsScaling(t *testing.T) {
	o := Options{Epsilon: 0.5}.withDefaults()
	// S = n^0.5 clamped at minS.
	_, s := o.params(100, 100)
	if s != minS {
		t.Fatalf("small n: S = %d, want clamp %d", s, minS)
	}
	_, s = o.params(1_000_000, 0)
	if s != 1000 {
		t.Fatalf("n=1e6: S = %d, want 1000", s)
	}
	// P·S ≈ factor·(n+m), capped at maxP.
	p, s := o.params(10_000, 40_000)
	wantP := min((2*(10_000+40_000+1)+s-1)/s, maxP)
	if p != wantP {
		t.Fatalf("P = %d, want %d", p, wantP)
	}
}

func TestParamsMaxPCap(t *testing.T) {
	o := Options{Epsilon: 0.3}.withDefaults()
	p, s := o.params(1_000_000, 4_000_000)
	if uncapped := (defaultSpaceFactor*(1_000_000+4_000_000+1) + s - 1) / s; uncapped <= maxP {
		t.Fatalf("instance too small to reach the cap: uncapped P = %d", uncapped)
	}
	if p != maxP {
		t.Fatalf("P = %d, want cap %d", p, maxP)
	}
}

func TestNewRuntimeBudgetScalesWithCap(t *testing.T) {
	// When P is capped, the per-machine budget must scale so each simulated
	// machine can stand in for several model machines.
	big := Options{Epsilon: 0.3}.withDefaults()
	rt := big.newRuntime(context.Background(), 100_000, 400_000)
	_, s := big.params(100_000, 400_000)
	uncapped := (big.spaceFactor*(100_000+400_000+1) + s - 1) / s
	scale := (uncapped + maxP - 1) / maxP
	if rt.Budget() < 8*s*scale {
		t.Fatalf("budget %d did not scale with the P cap (want >= %d)", rt.Budget(), 8*s*scale)
	}
}

func TestShrinkIterationsValues(t *testing.T) {
	// 2(1-eps)/eps + 1, rounded up.
	if got := shrinkIterations(0.5); got != 3 {
		t.Fatalf("shrinkIterations(0.5) = %d, want 3", got)
	}
	if got := shrinkIterations(0.25); got != 7 {
		t.Fatalf("shrinkIterations(0.25) = %d, want 7", got)
	}
}

func TestTelemetryAccumulate(t *testing.T) {
	agg := Telemetry{}
	accumulate(&agg, Telemetry{Rounds: 3, Phases: 1, TotalQueries: 100, MaxMachineQueries: 10, MaxShardLoad: 5, P: 4, S: 64})
	accumulate(&agg, Telemetry{Rounds: 2, Phases: 2, TotalQueries: 50, MaxMachineQueries: 20, MaxShardLoad: 3, P: 8, S: 32})
	if agg.Rounds != 5 || agg.Phases != 3 || agg.TotalQueries != 150 {
		t.Fatalf("sums wrong: %+v", agg)
	}
	if agg.MaxMachineQueries != 20 || agg.MaxShardLoad != 5 {
		t.Fatalf("maxima wrong: %+v", agg)
	}
	if agg.P != 8 || agg.S != 64 {
		t.Fatalf("shape maxima wrong: %+v", agg)
	}
}

func TestParamsMonotoneInEpsilon(t *testing.T) {
	// Larger epsilon means more space per machine, fewer machines.
	n, m := 1_000_000, 2_000_000
	var prevS = 0
	for _, eps := range []float64{0.3, 0.5, 0.7} {
		o := Options{Epsilon: eps}.withDefaults()
		_, s := o.params(n, m)
		if s <= prevS {
			t.Fatalf("S not increasing in epsilon: %d then %d", prevS, s)
		}
		want := int(math.Ceil(math.Pow(float64(n), eps)))
		if s != want {
			t.Fatalf("eps=%v: S=%d want %d", eps, s, want)
		}
		prevS = s
	}
}
