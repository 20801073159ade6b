// Command ampcrun runs one AMPC algorithm on a generated workload and
// prints the result summary and cost telemetry. All dispatch goes through
// the ampc registry: -algo accepts any name listed by -list, and new
// algorithms registered with ampc.Register appear here with no changes.
//
// Usage:
//
//	ampcrun -algo connectivity -graph gnm -n 10000 -m 40000 -eps 0.5 -seed 1
//	ampcrun -algo mis -graph gnm -n 5000 -m 20000
//	ampcrun -algo msf -graph cgnm -n 5000 -m 20000
//	ampcrun -algo twocycle -graph cycle2 -n 8192
//	ampcrun -algo forestconn -graph forest -n 10000 -trees 20
//	ampcrun -algo biconn -graph gnm -n 2000 -m 4000
//	ampcrun -algo listrank -n 100000
//	ampcrun -list
//
// Graphs: gnm, cgnm (connected), powerlaw (Chung-Lu, gamma 2.5), skew
// (edges concentrated on a 1% hub set — dup-heavy keys), cycle (one
// cycle), cycle2 (two cycles), grid (sqrt(n) x sqrt(n)), path, star, tree,
// forest, clique, and mgnm — a streamed uniform multigraph that is never
// materialized as an edge list, the out-of-core ingest workload
// (connectivity only).
//
// -stream prints every round's statistics as it completes; -json emits the
// run's telemetry (per-round breakdown included) as JSON instead of the
// human summary; -workers sets the runtime's worker-pool size (outputs
// never depend on it); -backend selects where each round's frozen store lives
// (mem keeps it in process, file keeps it in process and writes it behind the
// next round to one durable segment file per store under -store-dir, rpc
// ships it to the shardd fleet named by -servers with -replication copies per
// shard; outputs are identical for every backend); -timeout aborts the run
// through context cancellation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ampc"
	"ampc/internal/graph"
	"ampc/internal/sysmem"
)

func main() {
	var (
		algo     = flag.String("algo", "connectivity", "algorithm name from the registry (see -list)")
		list     = flag.Bool("list", false, "list registered algorithms and exit")
		gkind    = flag.String("graph", "gnm", "workload: gnm|cgnm|powerlaw|skew|cycle|cycle2|grid|path|star|tree|forest|clique|mgnm (streamed, connectivity only)")
		input    = flag.String("input", "", "read the graph from an edge-list file instead of generating one")
		n        = flag.Int("n", 10000, "vertex count")
		m        = flag.Int("m", 0, "edge count (default 4n for gnm/cgnm)")
		trees    = flag.Int("trees", 10, "tree count for -graph forest")
		eps      = flag.Float64("eps", 0.5, "space exponent: S = n^eps")
		seed     = flag.Uint64("seed", 1, "random seed")
		check    = flag.Bool("check", true, "verify against the sequential oracle")
		fault    = flag.Float64("faults", 0, "per-round machine failure probability (output must not change)")
		workers  = flag.Int("workers", 0, "worker lanes per round (0 = GOMAXPROCS); rounds over -backend rpc run one lane per machine instead; outputs are identical for any value")
		backend  = flag.String("backend", "mem", "store backend: mem (in-process), file (in-process, each store also written behind to a segment file) or rpc (shardd servers); outputs are identical")
		storeDir = flag.String("store-dir", "", "directory for -backend=file segment files (default: a temp dir removed after the run)")
		servers  = flag.String("servers", "", "comma-separated shardd addresses for -backend=rpc, e.g. 127.0.0.1:7701,127.0.0.1:7702")
		replicas = flag.Int("replication", 1, "copies of each shard across the -servers fleet (rpc backend)")
		rpcTO    = flag.Duration("rpc-timeout", 0, "per-request timeout against shardd servers (0 = default 2s)")
		rpcCool  = flag.Duration("rpc-cooldown", 0, "how long a failing shardd server stays marked down (0 = default 250ms)")
		asJSON   = flag.Bool("json", false, "emit telemetry as JSON (per-round breakdown included)")
		stream   = flag.Bool("stream", false, "print each round's stats as it completes")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()
	if *list {
		for _, name := range ampc.Algorithms() {
			spec, _ := ampc.Lookup(name)
			fmt.Printf("%-16s [%s] %s\n", name, spec.Input, spec.Description)
		}
		return
	}

	spec, ok := ampc.Lookup(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -algo %q; registered: %v\n", *algo, ampc.Algorithms())
		os.Exit(2)
	}
	if *m == 0 {
		*m = 4 * *n
	}

	eng := ampc.NewEngine(ampc.EngineOptions{
		Defaults: ampc.Options{
			Epsilon: *eps, Seed: *seed, FaultProb: *fault, Workers: *workers,
			Backend: *backend, StoreDir: *storeDir,
			Servers: splitServers(*servers), Replication: *replicas, RPCTimeout: *rpcTO,
			RPCDownCooldown: *rpcCool,
		},
		Observer: roundPrinter(*stream),
	})
	job := ampc.Job{Algo: *algo, Check: *check}

	r := ampc.NewRNG(*seed, 0x7)
	var workload string
	var wn, wm int
	switch spec.Input {
	case ampc.InputList:
		next, err := graph.PathList(*n)
		if err != nil {
			usage(err)
		}
		job.Next = next
		workload, wn, wm = "list", *n, 0
	case ampc.InputGraph:
		if *gkind == "mgnm" && *input == "" {
			if *n < 2 || *m < 0 {
				usage(fmt.Errorf("mgnm: needs n >= 2 and m >= 0, got n=%d m=%d", *n, *m))
			}
			es := ampc.StreamGNM(*n, *m, *seed)
			job.Stream = es
			workload, wn, wm = *gkind, es.N(), es.M()
			break
		}
		g := loadOrMakeGraph(*input, gkind, *n, *m, *trees, r)
		job.Graph = g
		workload, wn, wm = *gkind, g.N(), g.M()
	case ampc.InputWeightedGraph:
		g := loadOrMakeGraph(*input, gkind, *n, *m, *trees, r)
		wg := ampc.WithRandomWeights(g, r)
		job.Weighted = wg
		workload, wn, wm = *gkind, wg.N(), wg.M()
	}
	// Under -json stdout carries the telemetry document alone, so
	// `ampcrun -json | jq` parses; the human lines go to stderr.
	human := os.Stdout
	if *asJSON {
		human = os.Stderr
	}
	fmt.Fprintf(human, "workload: %s n=%d m=%d   eps=%.2f seed=%d\n", workload, wn, wm, *eps, *seed)

	// Ctrl-C and SIGTERM cancel the run like -timeout does, so the publisher
	// aborts its in-flight write and removes its store directory on the way
	// out; a second signal, once the first has cancelled, kills as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := eng.Run(ctx, job)
	wall := time.Since(start)
	fail(err)

	fmt.Fprintf(human, "result: %s\n", res.Summary)
	if res.Check == ampc.CheckPassed {
		fmt.Fprintln(human, "oracle check passed")
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fail(enc.Encode(res.Telemetry))
	} else {
		printTelemetry(res.Telemetry, wall)
	}
}

// roundPrinter returns a streaming observer, or nil when -stream is off.
// Rounds go to stderr so stdout stays parseable under -json.
func roundPrinter(enabled bool) ampc.TelemetryObserver {
	if !enabled {
		return nil
	}
	return func(ev ampc.RoundEvent) {
		fmt.Fprintf(os.Stderr, "round %-24s queries=%-8d writes=%-8d maxMachine=%-6d maxShard=%-6d pairs=%d\n",
			ev.Round.Name, ev.Round.Queries, ev.Round.Writes,
			ev.Round.MaxMachineQueries, ev.Round.MaxShardLoad, ev.Round.Pairs)
	}
}

// splitServers parses the -servers flag: comma-separated addresses, blanks
// dropped, empty flag meaning no servers (validation rejects that for rpc).
func splitServers(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func loadOrMakeGraph(input string, gkind *string, n, m, trees int, r *ampc.RNG) *ampc.Graph {
	if input != "" {
		f, err := os.Open(input)
		fail(err)
		defer f.Close()
		g, err := ampc.ReadEdgeList(f)
		fail(err)
		*gkind = input
		return g
	}
	g, err := graph.Generate(*gkind, n, m, trees, r)
	if err != nil {
		usage(err)
	}
	return g
}

func printTelemetry(t ampc.Telemetry, wall time.Duration) {
	fmt.Printf("\ncost (P=%d, S=%d):\n", t.P, t.S)
	fmt.Printf("  rounds              %d\n", t.Rounds)
	fmt.Printf("  phases              %d\n", t.Phases)
	fmt.Printf("  total queries       %d\n", t.TotalQueries)
	fmt.Printf("  max machine queries %d per round\n", t.MaxMachineQueries)
	fmt.Printf("  max shard load      %d per round\n", t.MaxShardLoad)
	fmt.Printf("  adaptive depth      %d read calls (Σ of each round's max per machine)\n", t.AdaptiveDepth)
	if t.CacheMisses > 0 {
		fmt.Printf("  store point reads   %d\n", t.CacheMisses)
	}
	if t.RPCFrames > 0 {
		fmt.Printf("  rpc read frames     %d\n", t.RPCFrames)
	}
	fmt.Printf("  execute time        %v\n", t.ExecuteTime.Round(time.Microsecond))
	fmt.Printf("  freeze time         %v (merge %v, build %v; fresh tables %.1f MB, slabs %.1f MB)\n",
		t.FreezeTime.Round(time.Microsecond), t.FreezeMergeTime.Round(time.Microsecond),
		t.FreezeBuildTime.Round(time.Microsecond), float64(t.FreshTableBytes)/(1<<20), float64(t.FreshSlabBytes)/(1<<20))
	fmt.Printf("  publish time        %v\n", t.PublishTime.Round(time.Microsecond))
	fmt.Printf("  driver time         %v (contract %v, read-back %v, ingest %v)\n", t.DriverTime.Round(time.Microsecond),
		t.DriverContractTime.Round(time.Microsecond), t.DriverReadbackTime.Round(time.Microsecond),
		t.DriverIngestTime.Round(time.Microsecond))
	fmt.Printf("  wall time           %v\n", wall.Round(time.Microsecond))
	fmt.Printf("  peak rss            %.1f MB\n", sysmem.PeakRSSMB())
}

// usage exits 2 with err: the run was asked for something it cannot do.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
