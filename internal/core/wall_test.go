package core_test

import (
	"context"
	"testing"
	"time"

	"ampc"
)

// TestDriverTimeAccountsForWall checks the in-program time split against
// the clock outside Engine.Run for every registered algorithm: driver +
// execute + freeze + publish must cover the run's wall time to within 10 %
// (the rest is option validation, runtime start-up and shutdown), so
// Telemetry.DriverTime agrees with the benchmark's outside-in "wall minus
// round phases" — for the composed pipelines too, whose stages are summed.
// Each algorithm gets its input kind's one workload (structured kinds get
// cycles or a forest), sized so no run is shorter than ≈ 50 ms on 2 vCPUs.
// The runs that drive the contraction algorithms must also measure the
// named driver sub-phases, and those must fit inside the driver time.
func TestDriverTimeAccountsForWall(t *testing.T) {
	r := ampc.NewRNG(55, 0)
	g := ampc.GNM(20000, 80000, r)
	weighted := ampc.WithRandomWeights(ampc.GNM(8000, 32000, r), r)
	next := make([]int, 80000)
	for i := range next {
		next[i] = i + 1
	}
	next[len(next)-1] = -1
	cycles := ampc.TwoCycles(50000)
	forest := ampc.RandomForest(30000, 10, r)
	contraction := map[string]bool{"connectivity": true, "msf": true, "affinity": true, "spanningforest": true, "biconn": true}

	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 2}})
	for _, name := range ampc.Algorithms() {
		spec, _ := ampc.Lookup(name)
		jobs := map[string]ampc.Job{}
		switch {
		case name == "twocycle" || name == "cycleconn":
			jobs[name] = ampc.Job{Algo: name, Graph: cycles}
		case name == "forestconn":
			jobs[name] = ampc.Job{Algo: name, Graph: forest}
		case spec.Input == ampc.InputGraph:
			jobs[name] = ampc.Job{Algo: name, Graph: g}
			if spec.AcceptsStream {
				jobs[name+"/stream"] = ampc.Job{Algo: name, Stream: ampc.StreamOf(g)}
			}
		case spec.Input == ampc.InputWeightedGraph:
			jobs[name] = ampc.Job{Algo: name, Weighted: weighted}
		case spec.Input == ampc.InputList:
			jobs[name] = ampc.Job{Algo: name, Next: next}
		default:
			t.Fatalf("%s: no workload for input kind %v", name, spec.Input)
		}
		for label, job := range jobs {
			start := time.Now()
			res, err := eng.Run(context.Background(), job)
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tel := res.Telemetry
			sum := tel.DriverTime + tel.ExecuteTime + tel.FreezeTime + tel.PublishTime
			if tel.ExecuteTime <= 0 || tel.FreezeTime <= 0 || sum > wall || wall-sum > wall/10 {
				t.Errorf("%s: driver %v + execute %v + freeze %v + publish %v = %v, wall %v",
					label, tel.DriverTime, tel.ExecuteTime, tel.FreezeTime, tel.PublishTime, sum, wall)
			}
			if !contraction[name] {
				continue
			}
			named := tel.DriverContractTime + tel.DriverReadbackTime + tel.DriverIngestTime
			if tel.DriverContractTime <= 0 || tel.DriverReadbackTime <= 0 || tel.DriverIngestTime <= 0 || named > tel.DriverTime {
				t.Errorf("%s: contract %v + read-back %v + ingest %v against driver time %v",
					label, tel.DriverContractTime, tel.DriverReadbackTime, tel.DriverIngestTime, tel.DriverTime)
			}
		}
	}
}
