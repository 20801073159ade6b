package ampc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ampc"
	"ampc/internal/rpc"
)

// backendJobs builds one Job per registered algorithm on small fixed
// workloads, following the workers_test pattern: every algorithm the
// registry knows must take part, so a future algorithm cannot silently skip
// the differential gate.
func backendJobs(t *testing.T) []ampc.Job {
	t.Helper()
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

	var jobs []ampc.Job
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
		jobs = append(jobs, job)
	}
	return jobs
}

// rpcFleet lazily starts the loopback shardd fleet shared by the rpc
// differential columns, or adopts the external fleet named by
// $AMPC_RPC_SERVERS (the CI matrix points it at real shardd processes).
// Concurrent runs share the fleet safely: each publisher namespaces its
// generations under a random run id.
var rpcFleet struct {
	once  sync.Once
	addrs []string
	err   error
}

func rpcServers(t *testing.T) []string {
	t.Helper()
	rpcFleet.once.Do(func() {
		if env := os.Getenv("AMPC_RPC_SERVERS"); env != "" {
			for _, a := range strings.Split(env, ",") {
				if a = strings.TrimSpace(a); a != "" {
					rpcFleet.addrs = append(rpcFleet.addrs, a)
				}
			}
			return
		}
		f, err := rpc.StartFleet(make([]rpc.ServerConfig, 3))
		if err != nil {
			rpcFleet.err = err
			return
		}
		rpcFleet.addrs = f.Addrs()
	})
	if rpcFleet.err != nil {
		t.Fatalf("loopback shardd fleet: %v", rpcFleet.err)
	}
	return rpcFleet.addrs
}

// runBackend executes the job with the given options and returns the result
// plus the per-round pair counts.
func runBackend(t *testing.T, job ampc.Job, opts ampc.Options) (*ampc.Result, []int) {
	t.Helper()
	eng := ampc.NewEngine(ampc.EngineOptions{})
	j := job
	j.Opts = &opts
	res, err := eng.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("%s backend=%s workers=%d: %v", job.Algo, opts.Backend, opts.Workers, err)
	}
	return res, roundPairs(res)
}

// roundPairs returns the run's pair count per round.
func roundPairs(res *ampc.Result) []int {
	pairs := make([]int, len(res.Telemetry.RoundStats))
	for i, st := range res.Telemetry.RoundStats {
		pairs[i] = st.Pairs
	}
	return pairs
}

// normalizePayload returns a copy of an algorithm payload with its Telemetry
// field zeroed: telemetry carries wall-clock phase timings that legitimately
// differ between runs, while every other payload field must be byte-identical
// across backends.
func normalizePayload(p any) any {
	v := reflect.ValueOf(p)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return p
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	if f := c.FieldByName("Telemetry"); f.IsValid() && f.CanSet() {
		f.Set(reflect.Zero(f.Type()))
	}
	return c.Interface()
}

// TestBackendDifferential is the acceptance gate for the StoreBackend layer:
// every registered algorithm, run through the Engine on the same seeds, must
// produce byte-identical labels, payloads, summaries and oracle-check status
// whether each round reads D_{i-1} from in-process shards, from mmap'd shard
// files, or over the wire from a fleet of shardd servers — and for the
// published backends, for any worker count. A future backend plugs into the
// same test by adding its name to the backends list.
func TestBackendDifferential(t *testing.T) {
	servers := rpcServers(t)
	backends := []struct {
		name    string
		workers int
	}{
		{ampc.BackendFile, 1},
		{ampc.BackendFile, 8},
		{ampc.BackendRPC, 1},
		{ampc.BackendRPC, 8},
	}
	for _, job := range backendJobs(t) {
		job := job
		t.Run(job.Algo, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{7, 1234} {
				base, basePairs := runBackend(t, job, ampc.Options{Seed: seed, Backend: ampc.BackendMem, Workers: 1})
				if base.Check != ampc.CheckPassed && base.Check != ampc.CheckSkipped {
					t.Fatalf("seed %d: mem check status %v", seed, base.Check)
				}
				for _, bk := range backends {
					opts := ampc.Options{Seed: seed, Backend: bk.name, Workers: bk.workers}
					if bk.name == ampc.BackendRPC {
						opts.Servers = servers
					}
					res, pairs := runBackend(t, job, opts)
					if !reflect.DeepEqual(res.Labels, base.Labels) {
						t.Errorf("seed %d: labels differ between mem and %s/workers=%d", seed, bk.name, bk.workers)
					}
					if !reflect.DeepEqual(normalizePayload(res.Payload), normalizePayload(base.Payload)) {
						t.Errorf("seed %d: payloads differ between mem and %s/workers=%d", seed, bk.name, bk.workers)
					}
					if res.Summary != base.Summary {
						t.Errorf("seed %d: summary %q vs %q (%s/workers=%d)", seed, res.Summary, base.Summary, bk.name, bk.workers)
					}
					if res.Check != base.Check {
						t.Errorf("seed %d: check status %v vs %v (%s/workers=%d)", seed, res.Check, base.Check, bk.name, bk.workers)
					}
					if !reflect.DeepEqual(pairs, basePairs) {
						t.Errorf("seed %d: per-round pair counts differ: %v vs %v (%s/workers=%d)",
							seed, pairs, basePairs, bk.name, bk.workers)
					}
				}
			}
		})
	}
}

// TestBackendOptionValidation pins the Options.Backend contract: the three
// documented names and empty are accepted (rpc only with a server fleet),
// anything else is rejected with ErrInvalidOptions semantics before any
// round executes.
func TestBackendOptionValidation(t *testing.T) {
	g := ampc.Path(16)
	eng := ampc.NewEngine(ampc.EngineOptions{})
	for _, backend := range []string{"", ampc.BackendMem, ampc.BackendFile} {
		opts := ampc.Options{Backend: backend}
		if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts}); err != nil {
			t.Fatalf("backend %q rejected: %v", backend, err)
		}
	}
	for _, opts := range []ampc.Options{
		{Backend: "carrier-pigeon"},
		{Backend: ampc.BackendRPC}, // no servers
		{Backend: ampc.BackendRPC, Servers: []string{"a", "b"}, Replication: 3}, // R > fleet
	} {
		opts := opts
		if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts}); err == nil {
			t.Fatalf("invalid options %+v accepted", opts)
		}
	}
	opts := ampc.Options{Backend: ampc.BackendRPC, Servers: rpcServers(t), Replication: 2}
	if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts}); err != nil {
		t.Fatalf("rpc backend rejected: %v", err)
	}
}

// TestFileBackendStoreDir checks the explicit store directory contract:
// each run claims its own run-* subdirectory (so concurrent runs sharing a
// StoreDir never collide) and the final store's shard files survive the run
// for inspection.
func TestFileBackendStoreDir(t *testing.T) {
	dir := t.TempDir()
	g := ampc.GNM(200, 600, ampc.NewRNG(5, 1))
	eng := ampc.NewEngine(ampc.EngineOptions{})
	opts := ampc.Options{Seed: 11, Backend: ampc.BackendFile, StoreDir: dir}
	for run := 0; run < 2; run++ {
		if _, err := eng.Run(context.Background(), ampc.Job{Algo: "connectivity", Graph: g, Opts: &opts, Check: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Lock files (.lock, .ampc-dir.lock) are publisher infrastructure —
	// liveness markers for the stale-run sweep — not stores; skip anything
	// dot-prefixed when counting.
	visible := func(entries []os.DirEntry) []string {
		var names []string
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), ".") {
				names = append(names, e.Name())
			}
		}
		return names
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := visible(entries)
	if len(runs) != 2 {
		t.Fatalf("store dir holds %d run directories after 2 runs, want 2: %v", len(runs), runs)
	}
	for _, run := range runs {
		entries, err := os.ReadDir(filepath.Join(dir, run))
		if err != nil {
			t.Fatal(err)
		}
		if stores := visible(entries); len(stores) != 1 {
			t.Fatalf("run dir %s holds %d store files, want exactly the final one: %v", run, len(stores), stores)
		}
	}
}

// TestFileBackendFaultInjection runs the file backend under fault injection:
// restarts must not change outputs whatever the backend, per the model's
// fault-tolerance argument.
func TestFileBackendFaultInjection(t *testing.T) {
	g := ampc.GNM(400, 1200, ampc.NewRNG(8, 2))
	job := ampc.Job{Algo: "connectivity", Graph: g, Check: true}
	base, basePairs := runBackend(t, job, ampc.Options{Seed: 11, Backend: ampc.BackendMem, Workers: 1})
	eng := ampc.NewEngine(ampc.EngineOptions{})
	opts := ampc.Options{Seed: 11, Backend: ampc.BackendFile, FaultProb: 0.3, Workers: 4}
	j := job
	j.Opts = &opts
	res, err := eng.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Labels, base.Labels) {
		t.Error("fault injection changed labels on the file backend")
	}
	pairs := make([]int, len(res.Telemetry.RoundStats))
	for i, st := range res.Telemetry.RoundStats {
		pairs[i] = st.Pairs
	}
	if !reflect.DeepEqual(pairs, basePairs) {
		t.Errorf("per-round pair counts differ under faults: %v vs %v", pairs, basePairs)
	}
}
