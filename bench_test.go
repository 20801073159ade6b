// Micro-benchmarks for the series neither cmd/figure1 nor the lemma-bound
// tests cover: the §10 extensions (maximal matching, greedy coloring), affinity
// clustering, and two 2-Cycle ablations — aggressive failure injection
// (every machine killed and replayed with probability 0.25 each round) and
// the space exponent ε, whose rounds scale like 1/ε while S scales like
// n^ε. Each case runs through Engine.Run and reports rounds, phases
// (iterations, or affinity levels) and S next to ns/op.
//
//	go test -run '^$' -bench EngineRun .
package ampc_test

import (
	"context"
	"testing"

	"ampc"
)

func BenchmarkEngineRun(b *testing.B) {
	const n = 1 << 12
	r := ampc.NewRNG(n, 12)
	gnm := ampc.GNM(n, 4*n, r)
	weighted := ampc.WithRandomWeights(ampc.ConnectedGNM(n, 4*n, r), r)
	ring := ampc.TwoCycleInstance(n, true, r)
	for _, bc := range []struct {
		name string
		job  ampc.Job
		opts ampc.Options
	}{
		{"matching", ampc.Job{Algo: "matching", Graph: gnm}, ampc.Options{}},
		{"coloring", ampc.Job{Algo: "coloring", Graph: gnm}, ampc.Options{}},
		{"affinity", ampc.Job{Algo: "affinity", Weighted: weighted}, ampc.Options{}},
		{"twocycle", ampc.Job{Algo: "twocycle", Graph: ring}, ampc.Options{}},
		{"twocycle/faults=0.25", ampc.Job{Algo: "twocycle", Graph: ring}, ampc.Options{FaultProb: 0.25}},
		{"twocycle/eps=0.3", ampc.Job{Algo: "twocycle", Graph: ring}, ampc.Options{Epsilon: 0.3}},
		{"twocycle/eps=0.7", ampc.Job{Algo: "twocycle", Graph: ring}, ampc.Options{Epsilon: 0.7}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := ampc.NewEngine(ampc.EngineOptions{})
			var tel ampc.Telemetry
			for i := 0; i < b.N; i++ {
				job, opts := bc.job, bc.opts
				opts.Seed = uint64(i)
				job.Opts = &opts
				res, err := eng.Run(context.Background(), job)
				if err != nil {
					b.Fatal(err)
				}
				tel = res.Telemetry
			}
			b.ReportMetric(float64(tel.Rounds), "rounds")
			b.ReportMetric(float64(tel.Phases), "phases")
			b.ReportMetric(float64(tel.S), "S")
		})
	}
}
