// Scenario declarations: each chaos experiment is data — a workload axis
// (which generated inputs), a fault axis (static server faults plus
// orchestrated chaos actions fired between rounds), and a scale axis
// (n/m/eps/workers sweeps) — executed by the orchestrator in
// orchestrator.go. Everything here is pure data and pure planning: given
// the same name and scale, planScenario returns an identical plan, and
// the workload specs regenerate byte-identical graphs from their seeds.
// The determinism test in scenario_test.go pins both properties.
package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// workloadSpec pins one generated input: everything needed to regenerate
// the exact graph (or successor list) from scratch. All fields are
// comparable scalars, so the spec keys the orchestrator's oracle cache.
type workloadSpec struct {
	Algo    string
	Kind    string // makeGraph kind, or "list" for successor-list inputs
	N       int
	M       int
	Epsilon float64
	Seed    uint64
}

// chaosAction is one orchestrated fault: once Round rounds of the observed
// run have completed, Kind fires against fleet server Server. Actions are
// injected synchronously from the engine's round observer, so an action at
// round k happens-before any round k+1 read.
type chaosAction struct {
	Round  int
	Kind   string // "kill", "restart", "pause", "resume"
	Server int
}

func (a chaosAction) String() string {
	return fmt.Sprintf("%s:server%d@round%d", a.Kind, a.Server, a.Round)
}

// serverFault is a static fault profile one fleet server runs with for the
// scenario's whole lifetime — shardd's -fault-latency / -fault-drop knobs,
// applied to every request that server handles.
type serverFault struct {
	Server  int
	Latency time.Duration
	Drop    float64
	Seed    int64
}

// scenario declares one named chaos experiment as data. The orchestrator
// runs every workload × workers cell against a fresh fleet, fires the
// chaos schedule, and verifies the output against the mem-backend oracle:
// byte-identical labels, or — when ExpectUnavailable is set — a clean
// typed dds.ErrBackendUnavailable. Never a hang, never corruption.
type scenario struct {
	Name        string
	Description string
	Workloads   []workloadSpec
	Workers     []int // worker-pool sweep; 0 = GOMAXPROCS
	Servers     int
	Replication int
	Faults      []serverFault
	Chaos       []chaosAction
	// RPCTimeout / RPCDownCooldown tune the client's failure detector for
	// the scenario; zero keeps the engine defaults. Straggler scenarios
	// need a short timeout so a paused server costs milliseconds, not the
	// default two seconds per held request.
	RPCTimeout      time.Duration
	RPCDownCooldown time.Duration
	// ExpectUnavailable flips the pass condition: the run must fail
	// cleanly with dds.ErrBackendUnavailable instead of completing —
	// the contract that losing the last replica is a typed error, not a
	// hang or a wrong answer.
	ExpectUnavailable bool
}

// scaleInt shrinks a full-scale size by the scenario scale factor with a
// floor, so CI can run the same scenarios at -scale 0.25 without
// degenerating below the sizes where the algorithms still take many
// rounds (chaos actions scheduled at round k must have a round k to fire
// in).
func scaleInt(v int, scale float64, floor int) int {
	s := int(math.Round(float64(v) * scale))
	if s < floor {
		return floor
	}
	return s
}

// namedScenarios returns every declared scenario at the given scale
// factor, in stable order. Scale multiplies n and m only; the fault and
// chaos axes are scale-invariant so a CI run at 0.25 exercises exactly
// the failure sequence the full-scale run does.
func namedScenarios(scale float64) []scenario {
	gnm := func(n, m int, seed uint64) workloadSpec {
		return workloadSpec{Algo: "connectivity", Kind: "gnm", N: scaleInt(n, scale, 2000), M: scaleInt(m, scale, 8000), Epsilon: 0.5, Seed: seed}
	}
	return []scenario{
		{
			Name:        "baseline",
			Description: "healthy fleet, workload breadth: gnm, power-law, weighted cgnm, list ranking",
			Workloads: []workloadSpec{
				gnm(20000, 80000, 1),
				{Algo: "connectivity", Kind: "powerlaw", N: scaleInt(20000, scale, 2000), M: scaleInt(80000, scale, 8000), Epsilon: 0.5, Seed: 2},
				{Algo: "msf", Kind: "cgnm", N: scaleInt(10000, scale, 1000), M: scaleInt(40000, scale, 4000), Epsilon: 0.5, Seed: 1},
				{Algo: "listrank", Kind: "list", N: scaleInt(100000, scale, 10000), Epsilon: 0.5, Seed: 1},
			},
			Workers:     []int{0},
			Servers:     3,
			Replication: 2,
		},
		{
			Name:        "degraded",
			Description: "one slow server: 250µs injected latency on every request it handles",
			Workloads:   []workloadSpec{gnm(20000, 80000, 1)},
			Workers:     []int{0},
			Servers:     3,
			Replication: 2,
			// ~100x a loopback round trip — visibly degraded, but below the
			// client timeout so the fleet drags instead of failing over.
			Faults: []serverFault{{Server: 1, Latency: 250 * time.Microsecond}},
		},
		{
			Name:        "partition",
			Description: "primary range unreachable from round 1 on; R=2 reads fail over for the rest of the run",
			Workloads:   []workloadSpec{gnm(20000, 80000, 1)},
			Workers:     []int{0},
			Servers:     3,
			Replication: 2,
			Chaos:       []chaosAction{{Round: 1, Kind: "kill", Server: 0}},
		},
		{
			Name:        "restart",
			Description: "kill a replica at round 2, relaunch it at round 4; it rejoins empty and reads keep failing over",
			Workloads:   []workloadSpec{gnm(20000, 80000, 1)},
			Workers:     []int{0},
			Servers:     3,
			Replication: 2,
			Chaos: []chaosAction{
				{Round: 2, Kind: "kill", Server: 1},
				{Round: 4, Kind: "restart", Server: 1},
			},
		},
		{
			Name:        "straggler",
			Description: "SIGSTOP a server at round 2 (requests held unanswered), SIGCONT it at round 5",
			Workloads:   []workloadSpec{gnm(20000, 80000, 1)},
			Workers:     []int{0},
			Servers:     3,
			Replication: 2,
			Chaos: []chaosAction{
				{Round: 2, Kind: "pause", Server: 2},
				{Round: 5, Kind: "resume", Server: 2},
			},
			RPCTimeout:      150 * time.Millisecond,
			RPCDownCooldown: 50 * time.Millisecond,
		},
		{
			Name:        "blackout",
			Description: "R=1, kill a server at round 2: the run must fail with the typed ErrBackendUnavailable, never hang",
			Workloads:   []workloadSpec{gnm(20000, 80000, 1)},
			Workers:     []int{0},
			Servers:     2,
			Replication: 1,
			Chaos:       []chaosAction{{Round: 2, Kind: "kill", Server: 0}},
			// Fail fast: with the last replica gone there is nothing to
			// wait for, so a short timeout keeps the expected-failure cell
			// cheap.
			RPCTimeout:        200 * time.Millisecond,
			RPCDownCooldown:   50 * time.Millisecond,
			ExpectUnavailable: true,
		},
		{
			Name:        "highload",
			Description: "hub-skewed workload (dup-heavy keys, maximally uneven shard load) at large P, worker sweep",
			Workloads: []workloadSpec{
				{Algo: "connectivity", Kind: "skew", N: scaleInt(20000, scale, 2000), M: scaleInt(80000, scale, 8000), Epsilon: 0.35, Seed: 3},
			},
			Workers:     []int{1, 8},
			Servers:     3,
			Replication: 2,
		},
	}
}

// planScenario resolves one scenario by name at the given scale, with its
// chaos schedule sorted by firing round (stable on declaration order for
// equal rounds). Pure: same (name, scale) → identical plan.
func planScenario(name string, scale float64) (scenario, error) {
	for _, sc := range namedScenarios(scale) {
		if sc.Name == name {
			sort.SliceStable(sc.Chaos, func(i, j int) bool { return sc.Chaos[i].Round < sc.Chaos[j].Round })
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(scenarioNames(), ", "))
}

// scenarioNames lists every declared scenario in stable order.
func scenarioNames() []string {
	var names []string
	for _, sc := range namedScenarios(1) {
		names = append(names, sc.Name)
	}
	return names
}
