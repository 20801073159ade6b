package ampc_test

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"ampc"
	"ampc/internal/dds"
	"ampc/internal/rpc"
)

// The chaos grid. The model's fault promise (§2) is that the store D_{i-1}
// stays readable in round i whatever happens to the machines serving it, so
// every cell must end byte-identical to the mem backend or, once the last
// replica of some data is lost, fail with the typed dds.ErrBackendUnavailable.
// Never a hang, never a wrong label. To add a scenario, append a literal to
// the scenarios table.

// workload pins one generated input: everything needed to regenerate it.
type workload struct {
	Algo    string
	Kind    string // gnm, cgnm, powerlaw, skew, or list (a path as successor list)
	N, M    int
	Epsilon float64
	Seed    uint64
}

// chaosAction fires Kind (a chaosKinds key) at fleet server Server once
// Round rounds have completed, before round Round+1 reads anything.
type chaosAction struct {
	Round  int
	Kind   string
	Server int
}

type scenario struct {
	Name                        string
	Workloads                   []workload
	Workers                     []int // worker-pool sweep; 0 = GOMAXPROCS
	Servers, Replication        int
	Latency                     map[int]time.Duration // per-server delay on every request (shardd -fault-latency)
	Chaos                       []chaosAction         // in round order
	RPCTimeout, RPCDownCooldown time.Duration         // client failure detector; zero = engine defaults
	// ExpectUnavailable: the run must fail with dds.ErrBackendUnavailable
	// once the whole schedule fired.
	ExpectUnavailable bool
}

var gnm5k = workload{Algo: "connectivity", Kind: "gnm", N: 5000, M: 20000, Epsilon: 0.5, Seed: 1}

var scenarios = []scenario{
	{Name: "baseline", Workers: []int{0}, Servers: 3, Replication: 2, // healthy fleet, workload breadth
		Workloads: []workload{
			gnm5k,
			{Algo: "connectivity", Kind: "powerlaw", N: 5000, M: 20000, Epsilon: 0.5, Seed: 2},
			{Algo: "msf", Kind: "cgnm", N: 2500, M: 10000, Epsilon: 0.5, Seed: 1},
			{Algo: "listrank", Kind: "list", N: 25000, Epsilon: 0.5, Seed: 1},
		}},
	// One slow server, ~100× a loopback round trip: it drags, not fails over.
	{Name: "degraded", Workloads: []workload{gnm5k}, Workers: []int{0}, Servers: 3, Replication: 2,
		Latency: map[int]time.Duration{1: 250 * time.Microsecond}},
	// The primary range is gone from round 1 on; R=2 reads fail over.
	{Name: "partition", Workloads: []workload{gnm5k}, Workers: []int{0}, Servers: 3, Replication: 2,
		Chaos: []chaosAction{{1, "kill", 0}}},
	// A replica dies at round 2 and rejoins empty at round 4.
	{Name: "restart", Workloads: []workload{gnm5k}, Workers: []int{0}, Servers: 3, Replication: 2,
		Chaos: []chaosAction{{2, "kill", 1}, {4, "restart", 1}}},
	// A server holds requests unanswered from round 2 to 5; reads time out fast.
	{Name: "straggler", Workloads: []workload{gnm5k}, Workers: []int{0}, Servers: 3, Replication: 2,
		Chaos:      []chaosAction{{2, "pause", 2}, {5, "resume", 2}},
		RPCTimeout: 150 * time.Millisecond, RPCDownCooldown: 50 * time.Millisecond},
	// R=1 and a server dies: its data is gone, so the run must fail typed.
	{Name: "blackout", Workloads: []workload{gnm5k}, Workers: []int{0}, Servers: 2, Replication: 1,
		Chaos:      []chaosAction{{2, "kill", 0}},
		RPCTimeout: 200 * time.Millisecond, RPCDownCooldown: 50 * time.Millisecond, ExpectUnavailable: true},
	// Hub-skewed, duplicate-heavy keys at ε 0.35 (large P): maximal shard skew.
	{Name: "highload", Workers: []int{1, 8}, Servers: 3, Replication: 2,
		Workloads: []workload{{Algo: "connectivity", Kind: "skew", N: 5000, M: 20000, Epsilon: 0.35, Seed: 3}}},
}

// cellTimeout bounds one cell: a run past it hung, a bug, not a degraded mode.
const cellTimeout = 2 * time.Minute

// chaosFleet is the control surface a scenario drives: *rpc.Fleet in this
// process, or procFleet over real shardd processes.
type chaosFleet interface {
	Addrs() []string
	Kill(i int) error
	Restart(i int) error
	Pause(i int) error
	Resume(i int) error
	Close() error
}

var chaosKinds = map[string]func(chaosFleet, int) error{
	"kill": chaosFleet.Kill, "restart": chaosFleet.Restart, "pause": chaosFleet.Pause, "resume": chaosFleet.Resume,
}

type fleetStarter func(t *testing.T, sc scenario) (chaosFleet, error)

// startProcFleet runs sc's fleet on the shardd binary bin; nil without SIGSTOP.
var startProcFleet func(t *testing.T, bin string, sc scenario) (chaosFleet, error)

func startInprocFleet(_ *testing.T, sc scenario) (chaosFleet, error) {
	cfgs := make([]rpc.ServerConfig, sc.Servers)
	for i, d := range sc.Latency {
		cfgs[i].FaultLatency = d
	}
	return rpc.StartFleet(cfgs)
}

// TestScenario runs every scenario on in-process loopback servers (<name>/inproc)
// and on shardd processes (<name>/proc, skipped under -short).
func TestScenario(t *testing.T) {
	binDir, shardd := t.TempDir(), ""
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			want := oracles(t, sc)
			t.Run("inproc", func(t *testing.T) { runScenario(t, sc, want, startInprocFleet) })
			t.Run("proc", func(t *testing.T) {
				if testing.Short() || startProcFleet == nil {
					t.Skip("process fleet: skipped under -short and without SIGSTOP")
				}
				if shardd == "" {
					bin := filepath.Join(binDir, "shardd")
					if out, err := exec.Command("go", "build", "-o", bin, "./cmd/shardd").CombinedOutput(); err != nil {
						t.Fatalf("go build ./cmd/shardd: %v\n%s", err, out)
					}
					shardd = bin
				}
				runScenario(t, sc, want, func(t *testing.T, sc scenario) (chaosFleet, error) {
					return startProcFleet(t, shardd, sc)
				})
			})
		})
	}
}

// oracles runs each workload on the mem backend, checked against its oracle.
func oracles(t *testing.T, sc scenario) []*ampc.Result {
	want := make([]*ampc.Result, len(sc.Workloads))
	for i, w := range sc.Workloads {
		job := buildJob(t, w)
		job.Opts = &ampc.Options{Epsilon: w.Epsilon, Seed: w.Seed, Backend: ampc.BackendMem}
		res, err := ampc.NewEngine(ampc.EngineOptions{}).Run(context.Background(), job)
		if err != nil {
			t.Fatalf("mem oracle for %s/%s: %v", w.Algo, w.Kind, err)
		} else if res.Check != ampc.CheckPassed {
			t.Fatalf("mem oracle for %s/%s: check %v", w.Algo, w.Kind, res.Check)
		}
		want[i] = res
	}
	return want
}

func runScenario(t *testing.T, sc scenario, want []*ampc.Result, start fleetStarter) {
	for i, w := range sc.Workloads {
		for _, workers := range sc.Workers {
			t.Run(fmt.Sprintf("%s-%s-w%d", w.Algo, w.Kind, workers), func(t *testing.T) {
				runCell(t, sc, w, workers, want[i], start)
			})
		}
	}
}

// buildJob regenerates a workload's input, with the oracle check on.
func buildJob(t *testing.T, w workload) ampc.Job {
	job := ampc.Job{Algo: w.Algo, Check: true}
	r := ampc.NewRNG(w.Seed, 0x7)
	var g *ampc.Graph
	switch w.Kind {
	case "list":
		job.Next = make([]int, w.N)
		for i := range job.Next {
			job.Next[i] = i + 1
		}
		job.Next[w.N-1] = -1
		return job
	case "gnm":
		g = ampc.GNM(w.N, w.M, r)
	case "cgnm":
		g = ampc.ConnectedGNM(w.N, w.M, r)
	case "powerlaw":
		g = ampc.PowerLaw(w.N, w.M, r)
	case "skew":
		g = ampc.SkewedDegree(w.N, w.M, ampc.HubCount(w.N), r)
	default:
		t.Fatalf("unknown workload kind %q", w.Kind)
	}
	job.Graph = g
	if spec, _ := ampc.Lookup(w.Algo); spec.Input == ampc.InputWeightedGraph {
		job.Weighted = ampc.WithRandomWeights(g, r)
	}
	return job
}

// chaosInjector fires the schedule from the engine's round observer, which
// runs between rounds on the run's goroutine.
type chaosInjector struct {
	fleet   chaosFleet
	pending []chaosAction
	rounds  int
	errs    []error
}

func (c *chaosInjector) observe(ampc.RoundEvent) {
	c.rounds++
	for len(c.pending) > 0 && c.pending[0].Round <= c.rounds {
		a := c.pending[0]
		c.pending = c.pending[1:]
		err := errors.New("unknown chaos kind")
		if do := chaosKinds[a.Kind]; do != nil {
			err = do(c.fleet, a.Server)
		}
		if err != nil {
			c.errs = append(c.errs, fmt.Errorf("chaos action %+v: %w", a, err))
		}
	}
}

// runCell runs one workload at one worker count on a fresh fleet with the
// chaos schedule, checks the verdict, then checks that closing the fleet
// left no goroutine behind.
func runCell(t *testing.T, sc scenario, w workload, workers int, want *ampc.Result, start fleetStarter) {
	goroutines := runtime.NumGoroutine()
	fleet, err := start(t, sc)
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	defer fleet.Close()
	inject := &chaosInjector{fleet: fleet, pending: sc.Chaos}
	job := buildJob(t, w)
	job.Opts = &ampc.Options{
		Epsilon: w.Epsilon, Seed: w.Seed, Workers: workers,
		Backend: ampc.BackendRPC, Servers: fleet.Addrs(), Replication: sc.Replication,
		RPCTimeout: sc.RPCTimeout, RPCDownCooldown: sc.RPCDownCooldown,
	}
	ctx, cancel := context.WithTimeout(context.Background(), cellTimeout)
	defer cancel()
	var res *ampc.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = ampc.NewEngine(ampc.EngineOptions{Observer: inject.observe}).Run(ctx, job)
	}()
	select {
	case <-done:
	case <-time.After(cellTimeout + 30*time.Second):
		t.Fatalf("hung: Run still running 30s past its %v deadline", cellTimeout)
	}
	if err := fleet.Close(); err != nil {
		t.Errorf("close fleet: %v", err)
	}
	checkVerdict(t, sc, inject, res, runErr, want)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines 2s after the fleet closed, %d before it started\n%s",
			n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// checkVerdict holds a cell to its scenario's outcome: the whole chaos
// schedule fired without error, and the run either matched the oracle in
// labels, summary, check status and per-round pair counts, or — for
// ExpectUnavailable — failed with the typed dds.ErrBackendUnavailable.
func checkVerdict(t *testing.T, sc scenario, inject *chaosInjector, res *ampc.Result, runErr error, want *ampc.Result) {
	for _, err := range inject.errs {
		t.Error(err)
	}
	switch {
	case errors.Is(runErr, context.DeadlineExceeded):
		t.Fatalf("hung: no result within %v (%d rounds done): %v", cellTimeout, inject.rounds, runErr)
	case sc.ExpectUnavailable && errors.Is(runErr, dds.ErrBackendUnavailable):
		if len(inject.pending) > 0 {
			t.Errorf("unavailable after %d rounds, before chaos action %+v fired: %v", inject.rounds, inject.pending[0], runErr)
		}
		return
	case runErr != nil:
		t.Fatalf("run failed after %d rounds: %v", inject.rounds, runErr)
	case sc.ExpectUnavailable:
		t.Fatalf("run completed after %d rounds; want a clean dds.ErrBackendUnavailable", res.Telemetry.Rounds)
	}
	if len(inject.pending) > 0 {
		t.Errorf("chaos action %+v never fired: the run finished after %d rounds", inject.pending[0], res.Telemetry.Rounds)
	}
	if same := slices.Equal(res.Labels, want.Labels); !same || res.Summary != want.Summary || res.Check != want.Check {
		t.Errorf("diverged from the mem oracle: labels equal %v, summary %q, check %v; oracle %q, %v",
			same, res.Summary, res.Check, want.Summary, want.Check)
	}
	if got, exp := roundPairs(res), roundPairs(want); !slices.Equal(got, exp) {
		t.Errorf("per-round pairs %v, mem oracle %v", got, exp)
	}
}
