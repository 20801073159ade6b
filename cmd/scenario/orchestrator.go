// The scenario orchestrator: launches a shard fleet (in-process loopback
// servers or real shardd processes), runs every workload × workers cell of
// a scenario through the Engine with chaos actions injected between
// rounds, and verifies each cell against the mem-backend oracle — the
// output must be byte-identical, or (for expected-blackout scenarios) the
// run must fail with the clean typed dds.ErrBackendUnavailable. Never a
// hang, never corruption. A cell's wall time is printed, not gated: this is
// a correctness harness, performance is bench/'s job.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"ampc"
	"ampc/internal/dds"
	"ampc/internal/rpc"
)

// chaosFleet is the control surface the orchestrator drives. *rpc.Fleet
// implements it in-process; procFleet implements it over real shardd
// processes (kill = SIGKILL, pause = SIGSTOP, resume = SIGCONT).
type chaosFleet interface {
	Addrs() []string
	Kill(i int) error
	Restart(i int) error
	Pause(i int) error
	Resume(i int) error
	Close() error
}

// scenarioRunner executes scenarios and caches what is reusable across
// cells: the mem-backend oracle per workload spec, and (proc mode) the
// shardd binary.
type scenarioRunner struct {
	fleetMode string // "inproc" or "proc"
	root      string // module root, for go build and shardd spawn
	timeout   time.Duration
	oracles   map[workloadSpec]*oracleResult
	sharddBin string // built lazily on first proc fleet
	binDir    string
}

type oracleResult struct {
	labels  []int
	summary string
}

func newScenarioRunner(fleetMode, root string, timeout time.Duration) *scenarioRunner {
	return &scenarioRunner{
		fleetMode: fleetMode,
		root:      root,
		timeout:   timeout,
		oracles:   map[workloadSpec]*oracleResult{},
	}
}

func (r *scenarioRunner) close() {
	if r.binDir != "" {
		os.RemoveAll(r.binDir)
	}
}

// buildJob regenerates a workload spec's input deterministically — the
// same construction ampcrun uses, so a spec plus seed always yields
// byte-identical inputs.
func buildJob(spec workloadSpec) (ampc.Job, int, int, error) {
	job := ampc.Job{Algo: spec.Algo}
	r := ampc.NewRNG(spec.Seed, 0x7)
	var g *ampc.Graph
	switch spec.Kind {
	case "list":
		next := make([]int, spec.N)
		for i := 0; i < spec.N-1; i++ {
			next[i] = i + 1
		}
		if spec.N > 0 {
			next[spec.N-1] = -1
		}
		job.Next = next
		return job, spec.N, 0, nil
	case "gnm":
		g = ampc.GNM(spec.N, spec.M, r)
	case "cgnm":
		g = ampc.ConnectedGNM(spec.N, spec.M, r)
	case "powerlaw":
		g = ampc.PowerLaw(spec.N, spec.M, r)
	case "skew":
		g = ampc.SkewedDegree(spec.N, spec.M, ampc.HubCount(spec.N), r)
	default:
		return ampc.Job{}, 0, 0, fmt.Errorf("unknown workload kind %q", spec.Kind)
	}
	algoSpec, ok := ampc.Lookup(spec.Algo)
	if !ok {
		return ampc.Job{}, 0, 0, fmt.Errorf("unknown algorithm %q", spec.Algo)
	}
	if algoSpec.Input == ampc.InputWeightedGraph {
		job.Weighted = ampc.WithRandomWeights(g, r)
	} else {
		job.Graph = g
	}
	return job, g.N(), g.M(), nil
}

// oracle returns the mem-backend reference output for a workload spec,
// oracle-checked against the sequential implementation and cached across
// cells and scenarios.
func (r *scenarioRunner) oracle(spec workloadSpec) (*oracleResult, error) {
	if o, ok := r.oracles[spec]; ok {
		return o, nil
	}
	job, _, _, err := buildJob(spec)
	if err != nil {
		return nil, err
	}
	job.Check = true
	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{
		Epsilon: spec.Epsilon, Seed: spec.Seed, Backend: "mem",
	}})
	res, err := eng.Run(context.Background(), job)
	if err != nil {
		return nil, fmt.Errorf("mem oracle for %s/%s: %w", spec.Algo, spec.Kind, err)
	}
	o := &oracleResult{labels: res.Labels, summary: res.Summary}
	r.oracles[spec] = o
	return o, nil
}

// startFleet launches the scenario's shard fleet in the configured mode.
func (r *scenarioRunner) startFleet(sc scenario) (chaosFleet, error) {
	if r.fleetMode == "proc" {
		if err := r.buildShardd(); err != nil {
			return nil, err
		}
		return newProcFleet(r.sharddBin, sc.Servers, sc.Faults)
	}
	cfgs := make([]rpc.ServerConfig, sc.Servers)
	for _, f := range sc.Faults {
		if f.Server < 0 || f.Server >= sc.Servers {
			return nil, fmt.Errorf("scenario %s: fault server %d outside fleet of %d", sc.Name, f.Server, sc.Servers)
		}
		cfgs[f.Server].FaultLatency = f.Latency
		cfgs[f.Server].FaultDrop = f.Drop
		cfgs[f.Server].FaultSeed = f.Seed
	}
	return rpc.StartFleet(cfgs)
}

// buildShardd compiles cmd/shardd once per invocation so proc fleets spawn
// a real server binary, not `go run` wrappers whose pid is not the server's
// (signals must hit shardd itself).
func (r *scenarioRunner) buildShardd() error {
	if r.sharddBin != "" {
		return nil
	}
	dir, err := os.MkdirTemp("", "scenario-shardd-")
	if err != nil {
		return err
	}
	bin := filepath.Join(dir, "shardd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shardd")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("go build ./cmd/shardd: %v\n%s", err, out)
	}
	r.sharddBin, r.binDir = bin, dir
	return nil
}

// cellLine is what one executed cell reports: which workload ran, the chaos
// actions that actually fired, and the verified outcome ("ok",
// "unavailable", or "fail: ...").
type cellLine struct {
	Algo         string
	Workload     string
	N            int
	Workers      int
	Rounds       int
	WallMS       float64
	ChaosActions []string
	Outcome      string
}

// scenarioCell is one executed cell and whether its outcome was the
// expected one.
type scenarioCell struct {
	line   cellLine
	failed bool
}

// run executes every workload × workers cell of a scenario against a
// fresh fleet per cell (chaos mutates fleet state, so cells never share
// one) and returns the executed cells.
func (r *scenarioRunner) run(sc scenario) ([]scenarioCell, error) {
	var cells []scenarioCell
	for _, spec := range sc.Workloads {
		want, err := r.oracle(spec)
		if err != nil {
			return nil, err
		}
		for _, workers := range sc.Workers {
			cell, err := r.runCell(sc, spec, workers, want)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// chaosInjector fires a scenario's chaos schedule from the engine's round
// observer: after round k completes — synchronously, before any round k+1
// work starts — every action scheduled at k runs against the fleet.
type chaosInjector struct {
	mu      sync.Mutex
	fleet   chaosFleet
	pending []chaosAction
	rounds  int
	fired   []string
	errs    []error
}

func (c *chaosInjector) observe(ampc.RoundEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds++
	for len(c.pending) > 0 && c.pending[0].Round <= c.rounds {
		a := c.pending[0]
		c.pending = c.pending[1:]
		var err error
		switch a.Kind {
		case "kill":
			err = c.fleet.Kill(a.Server)
		case "restart":
			err = c.fleet.Restart(a.Server)
		case "pause":
			err = c.fleet.Pause(a.Server)
		case "resume":
			err = c.fleet.Resume(a.Server)
		default:
			err = fmt.Errorf("unknown chaos kind %q", a.Kind)
		}
		c.fired = append(c.fired, a.String())
		if err != nil {
			c.errs = append(c.errs, fmt.Errorf("%s: %w", a, err))
		}
	}
}

// report returns what fired, what never got the chance to, and any action
// errors, for the cell verdict.
func (c *chaosInjector) report() (fired []string, unfired []chaosAction, errs []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired, c.pending, c.errs
}

// runCell executes one workload × workers cell: fresh fleet, chaos
// injected between rounds, output verified against the mem oracle.
func (r *scenarioRunner) runCell(sc scenario, spec workloadSpec, workers int, want *oracleResult) (scenarioCell, error) {
	job, n, _, err := buildJob(spec)
	if err != nil {
		return scenarioCell{}, err
	}
	fleet, err := r.startFleet(sc)
	if err != nil {
		return scenarioCell{}, fmt.Errorf("scenario %s: fleet: %w", sc.Name, err)
	}
	defer fleet.Close()

	inject := &chaosInjector{fleet: fleet, pending: append([]chaosAction(nil), sc.Chaos...)}
	eng := ampc.NewEngine(ampc.EngineOptions{
		Defaults: ampc.Options{
			Epsilon: spec.Epsilon, Seed: spec.Seed, Workers: workers,
			Backend: "rpc", Servers: fleet.Addrs(), Replication: sc.Replication,
			RPCTimeout: sc.RPCTimeout, RPCDownCooldown: sc.RPCDownCooldown,
		},
		Observer: inject.observe,
	})
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	start := time.Now()
	res, runErr := eng.Run(ctx, job)
	wall := time.Since(start)

	fired, unfired, chaosErrs := inject.report()
	line := cellLine{
		Algo: spec.Algo, Workload: spec.Kind, N: n, Workers: workers, Rounds: roundsOf(res),
		WallMS: float64(wall.Microseconds()) / 1000, ChaosActions: fired,
	}
	line.Outcome = cellOutcome(sc, res, runErr, want, unfired, chaosErrs, ctx)
	expected := "ok"
	if sc.ExpectUnavailable {
		expected = "unavailable"
	}
	return scenarioCell{line: line, failed: line.Outcome != expected}, nil
}

// cellOutcome classifies one cell run: "ok" (completed, byte-identical
// labels, full chaos schedule fired), "unavailable" (failed cleanly with
// the typed backend-unavailable error after the full schedule fired), or
// "fail: <reason>".
func cellOutcome(sc scenario, res *ampc.Result, runErr error,
	want *oracleResult, unfired []chaosAction, chaosErrs []error, ctx context.Context) string {
	if len(chaosErrs) > 0 {
		return fmt.Sprintf("fail: chaos action: %v", chaosErrs[0])
	}
	if runErr != nil {
		switch {
		case errors.Is(runErr, dds.ErrBackendUnavailable):
			if !sc.ExpectUnavailable {
				return fmt.Sprintf("fail: backend unavailable: %v", runErr)
			}
			if len(unfired) > 0 {
				return fmt.Sprintf("fail: unavailable before chaos completed (%d action(s) unfired)", len(unfired))
			}
			return "unavailable"
		case ctx.Err() != nil:
			return "fail: hit -timeout (a hang is a bug, not a degraded mode)"
		default:
			return fmt.Sprintf("fail: %v", runErr)
		}
	}
	if sc.ExpectUnavailable {
		return "fail: run completed but scenario expects a clean backend-unavailable failure"
	}
	if len(unfired) > 0 {
		return fmt.Sprintf("fail: run finished after %d rounds before %d chaos action(s) fired (first: %s)",
			roundsOf(res), len(unfired), unfired[0])
	}
	if res.Summary != want.summary {
		return fmt.Sprintf("fail: summary diverged from mem oracle: %q != %q", res.Summary, want.summary)
	}
	if len(res.Labels) != len(want.labels) {
		return fmt.Sprintf("fail: %d labels, mem oracle has %d", len(res.Labels), len(want.labels))
	}
	for i := range res.Labels {
		if res.Labels[i] != want.labels[i] {
			return fmt.Sprintf("fail: label[%d] = %d diverged from mem oracle's %d", i, res.Labels[i], want.labels[i])
		}
	}
	return "ok"
}

func roundsOf(res *ampc.Result) int {
	if res == nil {
		return 0
	}
	return res.Telemetry.Rounds
}

// procFleet drives real shardd processes: kill is SIGKILL, restart
// re-spawns the binary on the original port, pause/resume are
// SIGSTOP/SIGCONT (unix only; see proc_unix.go / proc_other.go). This is
// the fleet the CI restart scenario uses, so the kill-and-relaunch path is
// exercised against actual processes, not in-process stand-ins.
type procFleet struct {
	bin    string
	faults map[int]serverFault
	mu     sync.Mutex
	addrs  []string
	procs  []*exec.Cmd // nil while killed
	paused []bool
}

func newProcFleet(bin string, n int, faults []serverFault) (*procFleet, error) {
	f := &procFleet{
		bin:    bin,
		faults: map[int]serverFault{},
		addrs:  make([]string, n),
		procs:  make([]*exec.Cmd, n),
		paused: make([]bool, n),
	}
	for _, fl := range faults {
		if fl.Server < 0 || fl.Server >= n {
			return nil, fmt.Errorf("fault server %d outside fleet of %d", fl.Server, n)
		}
		f.faults[fl.Server] = fl
	}
	for i := 0; i < n; i++ {
		if err := f.spawn(i, "127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// spawn launches server i on addr, scrapes the resolved address from the
// process's first stdout line (shardd prints it once the listener is up),
// and confirms liveness with a protocol ping. Callers hold no lock; the
// slot update at the end takes it.
func (f *procFleet) spawn(i int, addr string) error {
	args := []string{"-listen", addr, "-quiet"}
	if fl, ok := f.faults[i]; ok {
		if fl.Latency > 0 {
			args = append(args, "-fault-latency", fl.Latency.String())
		}
		if fl.Drop > 0 {
			args = append(args, "-fault-drop", fmt.Sprint(fl.Drop), "-fault-seed", fmt.Sprint(fl.Seed))
		}
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn shardd %d: %w", i, err)
	}
	resolved, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("shardd %d exited before reporting its address: %v", i, err)
	}
	resolved = resolved[:len(resolved)-1]
	var pingErr error
	for attempt := 0; attempt < 20; attempt++ {
		if pingErr = rpc.Ping(resolved, time.Second); pingErr == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if pingErr != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("shardd %d on %s never became reachable: %v", i, resolved, pingErr)
	}
	f.mu.Lock()
	f.addrs[i] = resolved
	f.procs[i] = cmd
	f.paused[i] = false
	f.mu.Unlock()
	return nil
}

func (f *procFleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.addrs...)
}

func (f *procFleet) Kill(i int) error {
	f.mu.Lock()
	cmd := f.procs[i]
	f.procs[i] = nil
	f.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("shardd %d already killed", i)
	}
	// SIGKILL lands even on a SIGSTOPped process, so a paused straggler
	// still dies here.
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	cmd.Wait()
	return nil
}

func (f *procFleet) Restart(i int) error {
	f.mu.Lock()
	running := f.procs[i] != nil
	addr := f.addrs[i]
	f.mu.Unlock()
	if running {
		return fmt.Errorf("shardd %d still running", i)
	}
	return f.spawn(i, addr)
}

func (f *procFleet) Pause(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.procs[i] == nil {
		return fmt.Errorf("shardd %d is killed, cannot pause", i)
	}
	if err := sigstop(f.procs[i].Process); err != nil {
		return err
	}
	f.paused[i] = true
	return nil
}

func (f *procFleet) Resume(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.procs[i] == nil {
		return fmt.Errorf("shardd %d is killed, cannot resume", i)
	}
	if err := sigcont(f.procs[i].Process); err != nil {
		return err
	}
	f.paused[i] = false
	return nil
}

func (f *procFleet) Close() error {
	f.mu.Lock()
	procs := append([]*exec.Cmd(nil), f.procs...)
	for i := range f.procs {
		f.procs[i] = nil
	}
	f.mu.Unlock()
	var first error
	for _, cmd := range procs {
		if cmd == nil {
			continue
		}
		if err := cmd.Process.Kill(); err != nil && first == nil {
			first = err
		}
		cmd.Wait()
	}
	return first
}
