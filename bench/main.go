// Command bench is the benchmark of record for this repository: one
// command that runs five workloads chosen to stress different layers,
// reports what a user waits for or pays for (wall_s, setup_s, rss_peak_mb)
// with tracing off, attributes the time to every layer in a separate
// traced pass, and checks every output against a sequential oracle.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	go run -C bench .                      # all workloads, both passes
//	go run -C bench . -workload cc-gnm-rpc # some of them
//	go run -C bench . -quick               # 0.05 of every size and duration
//	go run -C bench . -compare a.json b.json
//
// The first form is the BENCHMARK.json command: one pass of one workload,
// one JSON result line. Layers are measured strictly from outside -
// Observer round events and timed calls into exported functions - so
// nothing under internal/, cmd/ or the root package knows the benchmark
// exists. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ampc"
)

// config is one process's settings, from flags and the box.
type config struct {
	seed    uint64
	seconds float64 // -seconds as given; measure() applies -quick
	reps    int     // timed repetitions; 0 measures for seconds
	quick   bool
	workers int // Options.Workers = GOMAXPROCS = load goroutines = min(nproc, 4)

	scratch string // this process's directory under outDir, removed at exit
	ampcd   string // the built daemon binary
}

// outDir, relative to the bench directory the program runs in, holds
// everything a run leaves behind.
const outDir = "out"

// instances is how many instance processes an end-to-end pass spawns.
func (cfg *config) instances() int {
	if cfg.quick {
		return 1
	}
	return 3
}

// measure is how long a pass measures: -seconds, scaled under -quick.
func (cfg *config) measure() float64 {
	if cfg.quick {
		return cfg.seconds * quickScale
	}
	return cfg.seconds
}

// processStart is where an instance's set-up clock starts.
var processStart = time.Now()

const (
	defaultSeconds = 10
	childEnv       = "AMPC_BENCH_CHILD"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workload names (default: all)")
		seed    = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", defaultSeconds, "how long each pass measures")
		trace   = fs.Int("trace", -1, "0: end-to-end pass, tracing off; 1: traced per-layer pass; default: both passes of every named workload")
		reps    = fs.Int("reps", 0, "timed repetitions per set-up instance (default: as many as fit in -seconds)")
		quick   = fs.Bool("quick", false, "scale every size and duration by 0.05 and set up once")
		out     = fs.String("out", "", "write the JSON document to this file as well")
		compare = fs.Bool("compare", false, "compare two -out documents given as arguments against BENCHMARK.json's bounds")
		// Set by the end-to-end pass on the instance processes it spawns.
		instance = fs.Bool("instance", false, "internal: set up once, run timed repetitions, print an instance result")
		ampcd    = fs.String("ampcd", "", "internal: the ampcd binary the pass already built")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}

	var specs []spec
	if *names == "" {
		specs = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		s, ok := findSpec(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", n)
			return 2
		}
		specs = append(specs, s)
	}

	cfg := &config{seed: *seed, seconds: *seconds, reps: *reps, quick: *quick, ampcd: *ampcd}
	cfg.workers = runtime.NumCPU()
	if cfg.workers > 4 {
		cfg.workers = 4
	}
	runtime.GOMAXPROCS(cfg.workers)

	var err error
	switch {
	case *trace < 0 && !*instance:
		err = runAll(stdout, cfg, specs, *out)
	case len(specs) != 1:
		err = fmt.Errorf("-trace and -instance run one workload; name it with -workload")
	case *instance:
		err = runInstance(stdout, cfg, specs[0])
	default:
		var res result
		if res, err = runPass(stdout, cfg, specs[0], *trace == 1); err == nil {
			err = printResult(stdout, res, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// prepare creates this process's scratch directory and, for the serving
// workload, builds ampcd unless the parent pass already did - all before
// any set-up clock starts.
func (cfg *config) prepare(serve bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	if cfg.scratch, err = filepath.Abs(scratch); err != nil {
		return err
	}
	if serve && cfg.ampcd == "" {
		if cfg.ampcd, err = filepath.Abs(filepath.Join(outDir, "ampcd")); err != nil {
			return err
		}
		build := exec.Command("go", "build", "-o", cfg.ampcd, "ampc/cmd/ampcd")
		if msg, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building ampcd (run from the bench directory): %v\n%s", err, msg)
		}
	}
	return nil
}

// runPass runs one pass of one workload and prints its metrics by name.
func runPass(stdout io.Writer, cfg *config, s spec, traced bool) (result, error) {
	if err := cfg.prepare(s.serve); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.scratch)

	pass, defs := passEndToEnd, endToEnd
	if traced {
		pass, defs = passTraced, perLayer
	}
	fmt.Fprintf(stdout, "== %s seed=%d workers=%d trace=%v\n", s.Name, cfg.seed, cfg.workers, traced)
	vals, attempted, failed, err := pass(stdout, cfg, s)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "fail_ratio = %d/%d\n", failed, attempted)
	return newResult(defs, vals, attempted, failed), nil
}

// printResult prints v - a pass's result or the whole document - as the
// last line of output, writes it to out if named, and reports failed
// operations as an error so the exit code is non-zero.
func printResult(stdout io.Writer, v interface{ failures() int }, out string) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if n := v.failures(); n > 0 {
		return fmt.Errorf("%d operations failed; see fail_ratio above", n)
	}
	return nil
}

// printTiming prints one timing metric with its five-number summary.
func printTiming(w io.Writer, name, unit string, xs []float64) {
	s := sorted(xs)
	q1, q3 := quartiles(s)
	fmt.Fprintf(w, "%-32s = %.6g %s  (n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g)\n",
		name, median(s), unit, len(s), s[0], q1, q3, s[len(s)-1])
}

// timedReps runs untraced repetitions until cfg.reps are done or, without
// -reps, for the given time; at least one.
func timedReps(cfg *config, inst *instance, seconds float64) (walls []float64, attempted, failed int, first error) {
	start := time.Now()
	for r := 0; ; r++ {
		if cfg.reps > 0 && r >= cfg.reps {
			break
		}
		if cfg.reps == 0 && r > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		// Start every repetition from a collected heap, so one repetition's
		// garbage is not the next one's collection.
		runtime.GC()
		rr := inst.rep(nil, -1)
		walls = append(walls, rr.wall.Seconds())
		attempted += rr.attempted
		failed += rr.failed
		if first == nil {
			first = rr.err
		}
	}
	return walls, attempted, failed, first
}

// instanceResult is what one instance process reports to the pass that
// spawned it: one set-up, its timed repetitions, its peak RSS.
type instanceResult struct {
	SetupS    float64   `json:"setup_s"`
	WallsS    []float64 `json:"walls_s"`
	RSSPeakMB float64   `json:"rss_peak_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	First     string    `json:"first_failure,omitempty"`
}

// runInstance is one instance process: set up once - the clock runs from
// process start - then timed untraced repetitions, then the peak RSS of
// the process that held the stores.
func runInstance(stdout io.Writer, cfg *config, s spec) error {
	if err := cfg.prepare(s.serve); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratch)
	inst, err := setUp(cfg, s)
	if err != nil {
		return err
	}
	defer inst.tearDown()
	res := instanceResult{SetupS: time.Since(processStart).Seconds()}
	if err := inst.verifyWarm(); err != nil {
		return err
	}
	var first error
	res.WallsS, res.Attempted, res.Failed, first = timedReps(cfg, inst, cfg.measure())
	if first != nil {
		res.First = first.Error()
	}
	res.RSSPeakMB = peakRSSMB(os.Getpid())
	if inst.d != nil {
		// The stores live in the daemon; its high-water mark is the one a
		// user provisions for.
		inst.d.stop()
		res.RSSPeakMB = inst.d.peakRSS
	}
	return json.NewEncoder(stdout).Encode(res)
}

// passEndToEnd is the untraced pass. It spawns cfg.instances() instance
// processes of this binary, one after the other, each measuring for its
// share of cfg.seconds, and reports the median repetition, the median
// set-up and the median peak RSS - so every number is per fresh process,
// and no process's luck with memory layout or GC phase decides a run.
func passEndToEnd(stdout io.Writer, cfg *config, s spec) (map[string]float64, int, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	args := []string{"-instance", "-workload", s.Name, "-ampcd", cfg.ampcd,
		"-seed", fmt.Sprint(cfg.seed), "-reps", fmt.Sprint(cfg.reps),
		"-seconds", fmt.Sprint(cfg.seconds / float64(cfg.instances()))}
	if cfg.quick {
		args = append(args, "-quick")
	}
	var walls, setups, rss []float64
	attempted, failed := 0, 0
	for i := 0; i < cfg.instances(); i++ {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		var r instanceResult
		if err != nil || json.Unmarshal(outb, &r) != nil {
			return nil, 0, 0, fmt.Errorf("instance %d of %s: %v: %s", i, s.Name, err, bytes.TrimSpace(outb))
		}
		if r.First != "" {
			fmt.Fprintf(stdout, "instance %d first failure: %s\n", i, r.First)
		}
		walls = append(walls, r.WallsS...)
		setups = append(setups, r.SetupS)
		rss = append(rss, r.RSSPeakMB)
		attempted += r.Attempted
		failed += r.Failed
	}
	vals := map[string]float64{"wall_s": median(walls), "setup_s": median(setups), "rss_peak_mb": median(rss)}
	printTiming(stdout, "wall_s", "s", walls)
	printTiming(stdout, "setup_s", "s", setups)
	printTiming(stdout, "rss_peak_mb", "MB", rss)
	if s.serve {
		fmt.Fprintf(stdout, "%-32s = %.6g 1/s  (closed loop, %d clients, %d requests per burst)\n",
			"closed-loop throughput", float64(attempted)/sum(walls), cfg.workers, attempted/len(walls))
	}
	return vals, attempted, failed, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// passTraced is the per-layer pass: a few untraced repetitions for the
// base, one repetition under an Observer with spans, the serving open
// loop, and the layer probes. It writes out/trace.json.
func passTraced(stdout io.Writer, cfg *config, s spec) (map[string]float64, int, int, error) {
	inst, err := setUp(cfg, s)
	if err != nil {
		return nil, 0, 0, err
	}
	defer inst.tearDown()
	if err := inst.verifyWarm(); err != nil {
		return nil, 0, 0, err
	}
	base, attempted, failed, first := timedReps(cfg, inst, cfg.measure()/2)

	vals := make(map[string]float64)
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", s.Name, cfg.seed, time.Now().UnixNano()))
	root := tr.open("bench.traced_pass", -1, time.Now())
	note := func(rr repResult) {
		attempted += rr.attempted
		failed += rr.failed
		if first == nil {
			first = rr.err
		}
	}

	// The traced repetition. For the serving workload the rounds ran inside
	// ampcd, out of an Observer's reach, so the store-building job is
	// reproduced here in process - which also yields the retained store
	// the in-process lookup floor is measured on.
	var tel ampc.Telemetry
	var jobWall, tracedWall time.Duration
	if s.serve {
		opts := inst.opts
		opts.RetainStore = true
		res, wall, err := inst.runJob(tr, root, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		tel, jobWall = res.Telemetry, wall
		if err := lookupProbe(tr, root, cfg, res, vals); err != nil {
			return nil, 0, 0, err
		}
		rr := inst.rep(tr, root)
		note(rr)
		tracedWall = rr.wall
		vals["query_qps"] = float64(rr.attempted) / rr.wall.Seconds()
		open := inst.openLoop(tr, root, openRate, cfg.measure())
		note(repResult{attempted: open.attempted, failed: open.failed, err: open.err})
		reportOpenLoop(stdout, cfg, open, vals)
	} else {
		rr := inst.rep(tr, root)
		note(rr)
		if rr.tel == nil {
			return nil, 0, 0, fmt.Errorf("traced run: %w", rr.err)
		}
		tel, jobWall, tracedWall = *rr.tel, rr.wall, rr.wall
	}
	vals["trace_overhead"] = tracedWall.Seconds() / median(base)
	runMetrics(s, tel, jobWall, vals)

	vals["graph.gen_ms"] = ms(inst.in.genTime)
	vals["graph.edges"] = float64(inst.in.m)
	edges := 0
	vals["graph.stream_pass_ms"] = ms(tr.timed("probe:graph.EdgeStream.Each", root, func() {
		inst.in.eachEdge(func(u, v int) { edges++ })
	}))
	if edges != inst.in.m {
		return nil, 0, 0, fmt.Errorf("edge stream replayed %d edges, input has %d", edges, inst.in.m)
	}

	probes, err := runProbes(tr, root, cfg, shapeOf(tel, inst.in))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		vals[k] = v
	}
	tr.close(root, time.Now())

	fillSelf(tr.spans)
	tracePath := filepath.Join(outDir, "trace.json")
	if err := writeTrace(tracePath, s.Name, traceRun{Run: tr.run, Seed: cfg.seed, Spans: tr.spans}); err != nil {
		return nil, 0, 0, err
	}

	if first != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", first)
	}
	printTiming(stdout, "untraced base wall", "s", base)
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "%-32s = %.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	printShares(stdout, jobWall, vals)
	printSelf(stdout, tr.spans, tracePath)
	return vals, attempted, failed, nil
}

// runMetrics derives the run's per-layer numbers from its round events'
// totals. core.driver_ms is what no phase timer sees: the wall time of
// Engine.Run minus every round's execute, freeze and publish.
func runMetrics(s spec, t ampc.Telemetry, wall time.Duration, vals map[string]float64) {
	vals["core.driver_ms"] = ms(wall - t.ExecuteTime - t.FreezeTime - t.PublishTime)
	vals["core.rounds"] = float64(t.Rounds)
	vals["core.phases"] = float64(t.Phases)
	vals["ampc.execute_ms"] = ms(t.ExecuteTime)
	vals["ampc.queries"] = float64(t.TotalQueries)
	vals["ampc.max_machine_queries"] = float64(t.MaxMachineQueries)
	if reads := t.CacheHits + t.CacheMisses; reads > 0 {
		vals["ampc.cache_hit_ratio"] = float64(t.CacheHits) / float64(reads)
	}
	vals["dds.freeze_ms"] = ms(t.FreezeTime)
	vals["dds.freeze_merge_ms"] = ms(t.FreezeMergeTime)
	vals["dds.freeze_build_ms"] = ms(t.FreezeBuildTime)
	vals["dds.writes"] = float64(t.TotalWrites)
	switch s.backend {
	case ampc.BackendFile:
		vals["dds.file_publish_ms"] = ms(t.PublishTime)
	case ampc.BackendRPC:
		vals["rpc.publish_ms"] = ms(t.PublishTime)
		vals["rpc.frames"] = float64(t.RPCFrames)
		if t.RPCFrames > 0 {
			vals["rpc.keys_per_frame"] = float64(t.CacheMisses) / float64(t.RPCFrames)
		}
	}
}

// lookupProbe times in-process QueryHandler.Lookup over the retained
// store: the floor under every served query.
func lookupProbe(tr *tracer, parent int, cfg *config, res *ampc.Result, vals map[string]float64) error {
	h, err := ampc.NewEngine(ampc.EngineOptions{}).Query(res)
	if err != nil {
		return err
	}
	defer h.Close()
	kind := h.Kinds()[0]
	keys := make([]int, 1<<16)
	r := rand.New(rand.NewSource(int64(cfg.seed)))
	for i := range keys {
		keys[i] = r.Intn(h.Len())
	}
	const passes = 16
	bad := 0
	d := tr.timed("probe:query.QueryHandler.Lookup", parent, func() {
		for p := 0; p < passes; p++ {
			for _, k := range keys {
				if v, ok, err := h.Lookup(kind, k); err != nil || !ok || v != res.Labels[k] {
					bad++
				}
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("in-process lookup: %d answers disagree with the run's labels", bad)
	}
	vals["query.lookup_ns"] = float64(d.Nanoseconds()) / float64(passes*len(keys))
	return nil
}

// reportOpenLoop turns the open-loop samples into the serving metrics.
func reportOpenLoop(stdout io.Writer, cfg *config, o openResult, vals map[string]float64) {
	vals["query_p50_us"] = percentile(o.all, 50)
	vals["query_p99_us"] = percentile(o.all, 99)
	for k, name := range kindNames {
		vals["ampcd."+name+"_p50_us"] = percentile(o.byKind[k], 50)
		vals["ampcd."+name+"_p99_us"] = percentile(o.byKind[k], 99)
	}
	vals["ampcd.http_overhead_us"] = vals["query_p50_us"] - vals["query.lookup_ns"]/1e3
	vals["ampcd.gen_late_p99_us"] = percentile(o.late, 99)
	vals["ampcd.achieved_rate"] = o.achieved
	n := len(o.all)
	fmt.Fprintf(stdout, "open loop: %d req/s due, %d clients, %d samples, %d beyond p99; per kind:",
		openRate, cfg.workers, n, n-(99*n+99)/100)
	for k, name := range kindNames {
		fmt.Fprintf(stdout, " %s n=%d", name, len(o.byKind[k]))
	}
	fmt.Fprintln(stdout)
}

// printShares prints how the observed job's wall time splits over layers.
func printShares(w io.Writer, wall time.Duration, vals map[string]float64) {
	total := ms(wall)
	fmt.Fprintf(w, "layer shares of the traced job's wall (%.1f ms):", total)
	for _, name := range []string{"core.driver_ms", "ampc.execute_ms", "dds.freeze_ms", "dds.file_publish_ms", "rpc.publish_ms"} {
		fmt.Fprintf(w, " %s %.1f%%", strings.TrimSuffix(name, "_ms"), 100*vals[name]/total)
	}
	fmt.Fprintln(w)
}

// printSelf prints the trace's self time per span name, largest first.
func printSelf(w io.Writer, spans []span, path string) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(w, "self time by span (%d spans in %s):", len(spans), path)
	for i, n := range names {
		if i == 8 {
			break
		}
		fmt.Fprintf(w, " %s %.1fms", n, self[n])
	}
	fmt.Fprintln(w)
}

// document is what runAll writes: the two contract results per workload
// plus where and how they were measured. -compare reads two of these.
type document struct {
	Meta      meta                   `json:"meta"`
	Workloads map[string]passResults `json:"workloads"`
}

type passResults struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

type meta struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Reps       int               `json:"reps"`
	Quick      bool              `json:"quick"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	Commit     string            `json:"commit"`
	Loops      map[string]string `json:"loops"`
}

func newMeta(cfg *config, specs []spec) meta {
	m := meta{Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps, Quick: cfg.quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: cfg.workers, GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Loops: map[string]string{}}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("model name")); ok {
				m.CPUModel = string(bytes.TrimSpace(bytes.TrimLeft(rest, " \t:")))
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = string(bytes.TrimSpace(rev))
	}
	for _, s := range specs {
		m.Loops[s.Name] = "closed loop, 1 client: repetitions run back to back"
		if s.serve {
			m.Loops[s.Name] = fmt.Sprintf("wall_s, query_qps: closed loop, %d clients; query_p50_us, query_p99_us, ampcd.*: open loop, %d req/s, %d clients",
				cfg.workers, openRate, cfg.workers)
		}
	}
	return m
}

func (r result) failures() int { return r.Failed }

func (d document) failures() int {
	n := 0
	for _, pr := range d.Workloads {
		n += pr.EndToEnd.Failed + pr.PerLayer.Failed
	}
	return n
}

// runAll runs both passes of every workload, then prints and optionally
// writes the combined document.
func runAll(stdout io.Writer, cfg *config, specs []spec, out string) error {
	doc := document{Meta: newMeta(cfg, specs), Workloads: map[string]passResults{}}
	for _, s := range specs {
		var pr passResults
		var err error
		if pr.EndToEnd, err = runPass(stdout, cfg, s, false); err != nil {
			return err
		}
		if pr.PerLayer, err = runPass(stdout, cfg, s, true); err != nil {
			return err
		}
		doc.Workloads[s.Name] = pr
	}
	return printResult(stdout, doc, out)
}
