package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ampc"
)

// TestScenarioPlanDeterminism pins the planning contract the CI grid
// relies on: the same scenario name and scale always resolve to an
// identical plan — same workload specs, same fault profiles, and the same
// chaos-action schedule in the same order.
func TestScenarioPlanDeterminism(t *testing.T) {
	for _, name := range scenarioNames() {
		for _, scale := range []float64{1, 0.25} {
			a, err := planScenario(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			b, err := planScenario(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("scenario %s at scale %g replans differently:\n%+v\n%+v", name, scale, a, b)
			}
			if !reflect.DeepEqual(a.Chaos, b.Chaos) {
				t.Errorf("scenario %s chaos schedule differs across plans", name)
			}
		}
	}
}

// TestScenarioWorkloadGraphDeterminism is the property test over 2 seeds:
// every graph workload of every scenario, regenerated from its spec with
// the same seed, serializes to byte-identical edge lists — and a seed
// change actually changes the graph, so the determinism is not vacuous.
func TestScenarioWorkloadGraphDeterminism(t *testing.T) {
	edgeBytes := func(spec workloadSpec) []byte {
		t.Helper()
		job, _, _, err := buildJob(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", spec.Algo, spec.Kind, err)
		}
		g := job.Graph
		if g == nil && job.Weighted != nil {
			g = job.Weighted.Graph
		}
		if g == nil {
			return nil // list workloads have no graph
		}
		var buf bytes.Buffer
		if err := ampc.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sc := range namedScenarios(0.1) {
		for _, spec := range sc.Workloads {
			if spec.Kind == "list" {
				continue
			}
			for _, seedShift := range []uint64{0, 1} {
				s := spec
				s.Seed += seedShift
				if !bytes.Equal(edgeBytes(s), edgeBytes(s)) {
					t.Errorf("%s %s/%s seed %d: regenerated graph differs", sc.Name, s.Algo, s.Kind, s.Seed)
				}
			}
			shifted := spec
			shifted.Seed++
			if bytes.Equal(edgeBytes(spec), edgeBytes(shifted)) {
				t.Errorf("%s %s/%s: seed change did not change the graph", sc.Name, spec.Algo, spec.Kind)
			}
		}
	}
}

// tinyScenario shrinks a planned scenario to test size and replaces its
// workload sweep with one gnm cell, keeping the chaos schedule intact.
func tinyScenario(t *testing.T, name string, workers []int) scenario {
	t.Helper()
	sc, err := planScenario(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Workloads = []workloadSpec{{Algo: "connectivity", Kind: "gnm", N: 2000, M: 8000, Epsilon: 0.5, Seed: 7}}
	sc.Workers = workers
	return sc
}

// TestScenarioRestartByteIdentical runs the restart scenario — kill a
// replica mid-run, relaunch it two rounds later — against an in-process
// fleet at workers 1 and 8 and requires every cell to complete with
// byte-identical labels versus the mem oracle and the full chaos schedule
// fired.
func TestScenarioRestartByteIdentical(t *testing.T) {
	sc := tinyScenario(t, "restart", []int{1, 8})
	runner := newScenarioRunner("inproc", "../..", time.Minute)
	defer runner.close()
	cells, err := runner.run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, cell := range cells {
		if cell.failed || cell.line.Outcome != "ok" {
			t.Errorf("workers=%d outcome %q, want ok", cell.line.Workers, cell.line.Outcome)
		}
		if got := len(cell.line.ChaosActions); got != len(sc.Chaos) {
			t.Errorf("workers=%d fired %d chaos actions, want %d", cell.line.Workers, got, len(sc.Chaos))
		}
	}
}

// TestScenarioBlackoutCleanUnavailable pins the failure contract: killing
// the only replica must surface as the typed backend-unavailable outcome —
// never a hang (the runner would hit its timeout and fail) and never a
// wrong answer.
func TestScenarioBlackoutCleanUnavailable(t *testing.T) {
	sc := tinyScenario(t, "blackout", []int{1})
	runner := newScenarioRunner("inproc", "../..", time.Minute)
	defer runner.close()
	cells, err := runner.run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	if cells[0].failed || cells[0].line.Outcome != "unavailable" {
		t.Errorf("outcome %q (failed=%v), want clean unavailable", cells[0].line.Outcome, cells[0].failed)
	}
}
