package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ampc"
	"ampc/internal/graph"
	"ampc/internal/rpc"
)

// spec names one workload: the job, where its stores live, and why the
// benchmark runs it. The why strings are the ones BENCHMARK.json records.
type spec struct {
	Name string
	Why  string

	algo    string // registry name of the job
	n, m    int
	backend string // ampc.BackendMem, BackendFile or BackendRPC
	stream  bool   // input is a StreamGNM edge stream, residency drop
	serve   bool   // job runs inside a real ampcd; requests are timed
}

// workloads is the fixed set the benchmark of record runs. Sizes follow
// the issue; -quick scales them by quickScale.
var workloads = []spec{
	{
		Name: "cc-gnm-mem", algo: "connectivity", n: 100000, m: 400000, backend: ampc.BackendMem,
		Why: "write-heavy connectivity (4.2M writes, 1.1M queries, 16 rounds): core driver and dds freeze dominate; rpc, file publisher and ampcd idle - the bypass for network and serving changes",
	},
	{
		Name: "mis-gnm-mem", algo: "mis", n: 100000, m: 400000, backend: ampc.BackendMem,
		Why: "read-heavy MIS on the same graph (9.1M queries, 1.5M writes, 3 rounds): ampc execute (worker cache, dds Get) is about 90% of wall - shows a freeze win that taxes reads",
	},
	{
		Name: "cc-gnm-rpc", algo: "connectivity", n: 20000, m: 80000, backend: ampc.BackendRPC,
		Why: "connectivity over an in-process fleet of 3 loopback shard servers, R=2: rpc reads and publish dominate - the workload a wire-protocol change must move while cc-gnm-mem stays flat",
	},
	{
		Name: "cc-mgnm-file-drop", algo: "connectivity", n: 10000, m: 1000000, backend: ampc.BackendFile, stream: true,
		Why: "streamed multigraph connectivity, file backend, residency drop: graph ingest, core placement and the dds segment codec dominate; the workload where rss_peak_mb is the point",
	},
	{
		Name: "serve-cc-http", algo: "connectivity", n: 100000, m: 400000, backend: ampc.BackendMem, serve: true,
		Why: "a real ampcd process answers 80% point, 10% 64-key batch, 10% pair queries over a retained store; no round runs while timing: cmd/ampcd HTTP and the root query layer do all the work",
	},
}

const (
	quickScale = 0.05

	fleetServers     = 3
	fleetReplication = 2

	// burstRequests is one closed-loop repetition of the serving workload:
	// wall_s there is the time to complete this many requests.
	burstRequests = 5000
	// requestPool is how many distinct requests are generated per seed;
	// bursts and the open loop walk the pool in order, wrapping around.
	requestPool = 32768
	batchKeys   = 64
	openRate    = 2000 // requests per second, open loop
)

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns n scaled for -quick, never below min.
func scaled(n int, quick bool, min int) int {
	if quick {
		n = int(float64(n) * quickScale)
	}
	if n < min {
		n = min
	}
	return n
}

// request is one pre-generated serving query.
type request struct {
	kind int   // kindPoint, kindBatch or kindPair
	keys []int // 1, batchKeys or 2 vertex ids
}

const (
	kindPoint = iota
	kindBatch
	kindPair
	numKinds
)

var (
	kindNames = [numKinds]string{"point", "batch", "pair"}
	httpSpans = [numKinds]string{"http:point", "http:batch", "http:pair"}
)

// input is everything a workload hands the system, generated in the bench
// process from the seed alone.
type input struct {
	n, m    int
	graph   *ampc.Graph
	stream  ampc.EdgeStream
	reqs    []request
	genTime time.Duration // the generator call, for graph.gen_ms
}

// makeInput generates the workload's input from seed. The same seed gives
// byte-identical input; digest is how the tests check that.
func (s spec) makeInput(seed uint64, quick bool) input {
	in := input{n: scaled(s.n, quick, 64), m: scaled(s.m, quick, 128)}
	start := time.Now()
	if s.stream {
		in.stream = ampc.StreamGNM(in.n, in.m, seed)
	} else {
		// Stream 0x7 is the generator stream ampcrun and ampcd use, so a
		// bench graph is the graph `ampcrun -graph gnm -seed N` builds.
		in.graph = ampc.GNM(in.n, in.m, ampc.NewRNG(seed, 0x7))
	}
	in.genTime = time.Since(start)
	if s.serve {
		r := rand.New(rand.NewSource(int64(seed)))
		in.reqs = make([]request, scaled(requestPool, quick, 256))
		for i := range in.reqs {
			req := request{kind: kindPoint, keys: make([]int, 1)}
			switch r.Intn(10) {
			case 8:
				req = request{kind: kindBatch, keys: make([]int, batchKeys)}
			case 9:
				req = request{kind: kindPair, keys: make([]int, 2)}
			}
			for j := range req.keys {
				req.keys[j] = r.Intn(in.n)
			}
			in.reqs[i] = req
		}
	}
	return in
}

// eachEdge replays the input's edges in generation order.
func (in input) eachEdge(emit func(u, v int)) {
	if in.stream != nil {
		in.stream.Each(emit)
		return
	}
	for _, e := range in.graph.Edges() {
		emit(e.U, e.V)
	}
}

// digest hashes the generated input: sizes, every edge, every request.
func (in input) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [16]byte
	put := func(a, b int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:], uint64(b))
		h.Write(buf[:])
	}
	put(in.n, in.m)
	in.eachEdge(put)
	for _, r := range in.reqs {
		put(r.kind, len(r.keys))
		for _, k := range r.keys {
			put(k, 0)
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// oracleLabels is the sequential connectivity oracle: ampc.Components for
// a materialized graph, a union-find replay for a streamed input.
func (in input) oracleLabels() []int {
	if in.graph != nil {
		return ampc.Components(in.graph)
	}
	dsu := graph.NewDSU(in.n)
	in.stream.Each(func(u, v int) { dsu.Union(u, v) })
	labels := make([]int, in.n)
	for i := range labels {
		labels[i] = dsu.Find(i)
	}
	return labels
}

// counters are the exact-repeat counts of one repetition: the same seed
// must reproduce them on every repetition, or the repetition failed.
// rpc.frames is deliberately absent: it depends on request coalescing.
type counters struct {
	Rounds  int
	Queries int64
	Writes  int64
}

func countersOf(t ampc.Telemetry) counters {
	return counters{Rounds: t.Rounds, Queries: t.TotalQueries, Writes: t.TotalWrites}
}

// instance is one set-up workload: input generated, fleet or daemon
// launched, warm-up run done.
type instance struct {
	spec spec
	cfg  *config
	in   input
	opts ampc.Options

	fleet    *rpc.Fleet
	storeDir string
	d        *daemon

	warm    counters     // the warm-up's, the reference for every repetition
	warmRes *ampc.Result // the warm-up's output, verified by verifyWarm
	oracle  []int        // sequential labels, computed on first use
}

// setUp performs everything setup_s covers: input generation, fleet or
// daemon launch with the job that builds the retained store, and one
// untimed warm-up run. The caller calls verifyWarm once the set-up clock
// has stopped, so oracle work never counts as set-up.
func setUp(cfg *config, s spec) (*instance, error) {
	inst := &instance{spec: s, cfg: cfg, in: s.makeInput(cfg.seed, cfg.quick)}
	inst.opts = ampc.Options{Epsilon: 0.5, Seed: cfg.seed, Workers: cfg.workers, Backend: s.backend}
	ok := false
	defer func() {
		if !ok {
			inst.tearDown()
		}
	}()
	switch {
	case s.serve:
		d, err := startDaemon(cfg, inst.in)
		if err != nil {
			return nil, err
		}
		inst.d = d
		// Warm-up: open the connections and fault in the store's pages.
		if b := inst.burst(nil, -1, len(inst.in.reqs)/8, false); b.failed > 0 {
			return nil, fmt.Errorf("warm-up burst: %w", b.err)
		}
		ok = true
		return inst, nil
	case s.backend == ampc.BackendRPC:
		fleet, err := rpc.StartFleet(make([]rpc.ServerConfig, fleetServers))
		if err != nil {
			return nil, err
		}
		inst.fleet = fleet
		inst.opts.Servers = fleet.Addrs()
		inst.opts.Replication = fleetReplication
	case s.backend == ampc.BackendFile:
		dir, err := os.MkdirTemp(cfg.scratch, "store-")
		if err != nil {
			return nil, err
		}
		inst.storeDir = dir
		inst.opts.StoreDir = dir
		inst.opts.Residency = "drop"
	}
	res, _, err := inst.runJob(nil, -1, inst.opts)
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	inst.warm, inst.warmRes = countersOf(res.Telemetry), res
	ok = true
	return inst, nil
}

// verifyWarm checks the warm-up's output against the sequential oracle:
// the batch result's labels or MIS, or the labels ampcd serves at /result
// (which every timed request is then checked against).
func (inst *instance) verifyWarm() error {
	if inst.spec.serve {
		if err := inst.d.loadLabels(); err != nil {
			return err
		}
		if !ampc.SameLabeling(inst.d.labels, inst.in.oracleLabels()) {
			return fmt.Errorf("labels served at /result differ from the sequential oracle")
		}
		return nil
	}
	res := inst.warmRes
	inst.warmRes = nil
	if err := inst.checkOutput(res); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

func (inst *instance) tearDown() {
	if inst.d != nil {
		inst.d.stop()
	}
	if inst.fleet != nil {
		inst.fleet.Close()
	}
	if inst.storeDir != "" {
		os.RemoveAll(inst.storeDir)
	}
}

// runJob times one Engine.Run of the workload's job under opts. With a
// tracer it installs an Observer and records the run and each round's
// reconstructed phases as spans; without one it runs unobserved.
func (inst *instance) runJob(tr *tracer, parent int, opts ampc.Options) (*ampc.Result, time.Duration, error) {
	job := ampc.Job{Algo: inst.spec.algo, Graph: inst.in.graph, Stream: inst.in.stream}
	eo := ampc.EngineOptions{Defaults: opts}
	root := -1
	if tr != nil {
		exec, publish := "ampc.execute", "dds.publish"
		if opts.Backend == ampc.BackendRPC {
			// Over the fleet the execute phase is remote reads.
			exec, publish = "rpc.execute", "rpc.publish"
		}
		eo.Observer = func(ev ampc.RoundEvent) {
			// The event arrives right after the round's publish step;
			// walk back through publish, freeze and execute.
			end := time.Now()
			r := ev.Round
			pubStart := end.Add(-r.Publish)
			frzStart := pubStart.Add(-r.Freeze)
			exeStart := frzStart.Add(-r.Execute)
			id := tr.add("round:"+r.Name, root, exeStart, end)
			tr.add(exec, id, exeStart, frzStart)
			tr.add("dds.freeze", id, frzStart, pubStart)
			tr.add(publish, id, pubStart, end)
		}
	}
	eng := ampc.NewEngine(eo)
	start := time.Now()
	root = tr.open("core.Engine.Run", parent, start)
	res, err := eng.Run(context.Background(), job)
	end := time.Now()
	tr.close(root, end)
	if inst.storeDir != "" {
		// Each run leaves its final segment behind; clear it outside the
		// timed window so disk use stays at one run's worth.
		runs, _ := filepath.Glob(filepath.Join(inst.storeDir, "run-*"))
		for _, r := range runs {
			os.RemoveAll(r)
		}
	}
	return res, end.Sub(start), err
}

// checkOutput verifies a batch result against the sequential oracle and
// the warm-up's exact-repeat counters.
func (inst *instance) checkOutput(res *ampc.Result) error {
	if got := countersOf(res.Telemetry); got != inst.warm {
		return fmt.Errorf("counters %+v differ from the warm-up's %+v", got, inst.warm)
	}
	if inst.spec.algo == "mis" {
		if !ampc.IsMIS(inst.in.graph, res.Payload.(ampc.MISResult).InMIS) {
			return fmt.Errorf("output is not a maximal independent set")
		}
		return nil
	}
	if inst.oracle == nil {
		inst.oracle = inst.in.oracleLabels()
	}
	if !ampc.SameLabeling(res.Labels, inst.oracle) {
		return fmt.Errorf("labels differ from the sequential oracle")
	}
	return nil
}

// repResult is one timed repetition: a batch Engine.Run, or one
// closed-loop burst of the serving workload.
type repResult struct {
	wall      time.Duration
	attempted int // operations: 1 run, or the burst's requests
	failed    int
	err       error // first failure, for the report
	tel       *ampc.Telemetry
}

// rep runs one repetition and verifies it outside the timed window.
func (inst *instance) rep(tr *tracer, parent int) repResult {
	if inst.spec.serve {
		return inst.burst(tr, parent, scaled(burstRequests, inst.cfg.quick, 200), true)
	}
	res, wall, err := inst.runJob(tr, parent, inst.opts)
	out := repResult{wall: wall, attempted: 1}
	if err == nil {
		out.tel = &res.Telemetry
		err = inst.checkOutput(res)
	}
	if err != nil {
		out.failed, out.err = 1, err
	}
	return out
}
