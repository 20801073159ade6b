package ampc_test

import (
	"context"
	"reflect"
	"testing"

	"ampc"
)

// TestWorkersAndFaultsDoNotAffectOutputs pins the storage/executor rebuild's
// core invariant: a full algorithm run through the Engine produces identical
// labels and identical per-round pair counts whatever the worker-pool size,
// and with fault injection turned on. Machine randomness is a function of
// (seed, round, machine) and writes merge in machine-id order, so neither
// striping nor restarts may leak into any output.
func TestWorkersAndFaultsDoNotAffectOutputs(t *testing.T) {
	g := ampc.GNM(2000, 6000, ampc.NewRNG(5, 1))

	run := func(workers int, fault float64) ([]int, []int) {
		t.Helper()
		eng := ampc.NewEngine(ampc.EngineOptions{})
		opts := ampc.Options{Seed: 11, Workers: workers, FaultProb: fault}
		res, err := eng.Run(context.Background(), ampc.Job{
			Algo:  "connectivity",
			Graph: g,
			Opts:  &opts,
			Check: true,
		})
		if err != nil {
			t.Fatalf("workers=%d fault=%v: %v", workers, fault, err)
		}
		return res.Labels, roundPairs(res)
	}

	baseLabels, basePairs := run(1, 0)
	for _, tc := range []struct {
		workers int
		fault   float64
	}{
		{8, 0},
		{3, 0},
		{1, 0.3},
		{8, 0.3},
	} {
		labels, pairs := run(tc.workers, tc.fault)
		if len(labels) != len(baseLabels) {
			t.Fatalf("workers=%d fault=%v: %d labels, want %d", tc.workers, tc.fault, len(labels), len(baseLabels))
		}
		for v := range labels {
			if labels[v] != baseLabels[v] {
				t.Fatalf("workers=%d fault=%v: label[%d] = %d, want %d",
					tc.workers, tc.fault, v, labels[v], baseLabels[v])
			}
		}
		if len(pairs) != len(basePairs) {
			t.Fatalf("workers=%d fault=%v: %d rounds, want %d", tc.workers, tc.fault, len(pairs), len(basePairs))
		}
		for i := range pairs {
			if pairs[i] != basePairs[i] {
				t.Fatalf("workers=%d fault=%v: round %d wrote %d pairs, want %d",
					tc.workers, tc.fault, i, pairs[i], basePairs[i])
			}
		}
	}
}

// TestAllAlgorithmsWorkersInvariance runs every registered algorithm with
// Workers 1 and Workers 8 on a fixed seed and demands identical labels,
// summaries and per-round pair counts — the acceptance bar for the pooled
// executor: no registry algorithm may be sensitive to worker striping.
func TestAllAlgorithmsWorkersInvariance(t *testing.T) {
	r := ampc.NewRNG(3, 9)
	const n, m = 300, 900
	gnm := ampc.GNM(n, m, r)
	cgnm := ampc.ConnectedGNM(n, m, r)
	weighted := ampc.WithRandomWeights(cgnm, r)
	next := make([]int, n)
	for i := range next {
		next[i] = i + 1
	}
	next[n-1] = -1

	for _, algo := range ampc.Algorithms() {
		spec, _ := ampc.Lookup(algo)
		job := ampc.Job{Algo: algo, Check: true}
		switch spec.Input {
		case ampc.InputList:
			job.Next = next
		case ampc.InputWeightedGraph:
			job.Weighted = weighted
		default:
			switch algo {
			case "twocycle":
				job.Graph = ampc.TwoCycleInstance(n, false, ampc.NewRNG(3, 10))
			case "cycleconn":
				job.Graph = ampc.TwoCycles(n)
			case "forestconn":
				job.Graph = ampc.RandomForest(n, 6, ampc.NewRNG(3, 11))
			default:
				job.Graph = gnm
			}
		}

		run := func(workers int) (*ampc.Result, []int) {
			t.Helper()
			eng := ampc.NewEngine(ampc.EngineOptions{})
			j := job
			opts := ampc.Options{Seed: 7, Workers: workers}
			j.Opts = &opts
			res, err := eng.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			return res, roundPairs(res)
		}
		serial, serialPairs := run(1)
		pooled, pooledPairs := run(8)
		if !reflect.DeepEqual(serial.Labels, pooled.Labels) {
			t.Errorf("%s: labels differ between Workers=1 and Workers=8", algo)
		}
		if serial.Summary != pooled.Summary {
			t.Errorf("%s: summary %q vs %q", algo, serial.Summary, pooled.Summary)
		}
		if !reflect.DeepEqual(serialPairs, pooledPairs) {
			t.Errorf("%s: per-round pair counts differ: %v vs %v", algo, serialPairs, pooledPairs)
		}
	}
}

// TestWorkersOptionValidation covers the new Options.Workers contract:
// negative is rejected, positive values are accepted.
func TestWorkersOptionValidation(t *testing.T) {
	g := ampc.Path(16)
	eng := ampc.NewEngine(ampc.EngineOptions{})
	opts := ampc.Options{Workers: -1}
	if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	opts = ampc.Options{Workers: 2}
	if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts}); err != nil {
		t.Fatalf("Workers=2 rejected: %v", err)
	}
}
