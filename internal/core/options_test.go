package core

import (
	"context"
	"math"
	"testing"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
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

// TestTelemetryFold checks the one fold from per-round stats to a report:
// sums, maxima, adaptive depth, the timing and read-path totals, the fresh
// bytes of the rounds and of the input freezes, and DriverTime as the wall
// time left outside the rounds' phases, an input freeze's time included —
// and that a pipeline of stages folds to the same report over its
// concatenated rounds and input freezes.
func TestTelemetryFold(t *testing.T) {
	ms := time.Millisecond
	a := []ampc.RoundStats{
		{Queries: 100, Writes: 7, MaxMachineQueries: 10, MaxShardLoad: 5, MaxMachineReadCalls: 4,
			Execute: 3 * ms, Freeze: 2 * ms, FreezeMerge: ms, FreezeBuild: ms, Publish: ms, CacheMisses: 90, RPCFrames: 6,
			FreshTableBytes: 100, FreshSlabBytes: 10},
		{Queries: 50, Writes: 3, MaxMachineQueries: 20, MaxShardLoad: 3, MaxMachineReadCalls: 2,
			Execute: 5 * ms, Freeze: 4 * ms, FreezeMerge: 3 * ms, FreezeBuild: ms, CacheMisses: 40, RPCFrames: 2},
	}
	b := []ampc.RoundStats{
		{Queries: 25, Writes: 1, MaxMachineQueries: 15, MaxShardLoad: 9, MaxMachineReadCalls: 1,
			Execute: ms, Freeze: ms, FreezeBuild: ms, Publish: 2 * ms, CacheMisses: 20, RPCFrames: 1},
	}
	inA := dds.FreezeStats{Merge: 5 * ms, Build: 5 * ms, FreshTableBytes: 1000, FreshSlabBytes: 50}
	inB := dds.FreezeStats{FreshTableBytes: 2000}
	check := func(name string, got Telemetry, wall time.Duration) {
		t.Helper()
		if got.FreshTableBytes != 3100 || got.FreshSlabBytes != 60 {
			t.Errorf("%s: fresh bytes %d tables, %d slabs; want 3100 and 60", name, got.FreshTableBytes, got.FreshSlabBytes)
		}
		if got.Rounds != 3 || got.TotalQueries != 175 || got.TotalWrites != 11 || got.AdaptiveDepth != 7 {
			t.Errorf("%s: sums wrong: %+v", name, got)
		}
		if got.MaxMachineQueries != 20 || got.MaxShardLoad != 9 {
			t.Errorf("%s: maxima wrong: %+v", name, got)
		}
		if got.ExecuteTime != 9*ms || got.FreezeTime != 7*ms || got.FreezeMergeTime != 4*ms ||
			got.FreezeBuildTime != 3*ms || got.PublishTime != 3*ms {
			t.Errorf("%s: phase times wrong: %+v", name, got)
		}
		if got.CacheMisses != 150 || got.RPCFrames != 9 || got.CacheHits != 0 {
			t.Errorf("%s: read-path totals wrong: %+v", name, got)
		}
		if got.DriverTime != wall-19*ms {
			t.Errorf("%s: driver time %v, want wall %v - 19ms", name, got.DriverTime, wall)
		}
		if len(got.RoundStats) != 3 || got.RoundStats[2].Queries != 25 {
			t.Errorf("%s: round breakdown wrong: %+v", name, got.RoundStats)
		}
	}

	both := dds.FreezeStats{Merge: inA.Merge, Build: inA.Build, FreshTableBytes: 3000, FreshSlabBytes: 50}
	tel := fold(append(append([]ampc.RoundStats(nil), a...), b...), both, 3, 8, 64, 50*ms)
	check("fold", tel, 50*ms)
	if tel.Phases != 3 || tel.P != 8 || tel.S != 64 {
		t.Errorf("fold: phases and shape not echoed: %+v", tel)
	}

	pl := newPipeline()
	stageA := driverTimes{contract: ms, readback: 2 * ms, ingest: 3 * ms}.stamp(fold(a, inA, 1, 4, 64, 20*ms))
	stageB := driverTimes{contract: ms}.stamp(fold(b, inB, 2, 8, 32, 10*ms))
	pl.add(stageA)
	pl.add(stageB)
	start := pl.start
	tel = pl.telemetry()
	wall := tel.DriverTime + 19*ms // the pipeline's own wall time
	if wall < 0 || wall > time.Since(start) {
		t.Errorf("pipeline: driver time %v not measured from the pipeline's start", tel.DriverTime)
	}
	check("pipeline", tel, wall)
	if tel.Phases != 3 || tel.P != 8 || tel.S != 64 {
		t.Errorf("pipeline: phases %d, shape %d×%d; want 3, 8×64", tel.Phases, tel.P, tel.S)
	}
	if tel.DriverContractTime != 2*ms || tel.DriverReadbackTime != 2*ms || tel.DriverIngestTime != 3*ms {
		t.Errorf("pipeline: driver sub-phases not summed: %+v", tel)
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
