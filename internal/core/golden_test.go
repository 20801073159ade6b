package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

// The golden table pins "same numbers" for the contraction drivers: the
// outputs (as a sha256) and every model-accounting total of Connectivity,
// ConnectivityStream (local-solve shortcut and streamed ingest), MSF,
// SpanningForest and AffinityClustering, over seeds × graph kinds × worker
// counts × backends. It was captured from the map-based driver (the parent
// of the flat-driver change) and any driver-side rewrite must reproduce it
// exactly: the driver may get faster, it may not draw a different random
// number, write a record in a different place, or charge a different query.
// The rows of the three §5 query processes (MIS, matching, coloring) were
// captured from the ranked-adjacency rewrite, which lowered their query
// counts on purpose; they share the read-back with the contraction drivers.
// The rows of the remaining registered drivers (biconnectivity, list
// ranking, 2-Cycle, cycle and forest connectivity) each run two natural
// input shapes of their own; they were captured when every Telemetry total
// came to be folded from the rounds, which gave biconnectivity its writes
// and forest connectivity its shrink phases.
//
// Regenerate only for an intended behaviour change:
//
//	go test ./internal/core -run TestGoldenDriverTable -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_driver.tsv from this tree")

const goldenPath = "testdata/golden_driver.tsv"

var (
	goldenAlgos = []string{"connectivity", "stream-local", "stream-ingest", "msf", "forest", "affinity", "mis", "matching", "coloring",
		"biconn", "listrank", "twocycle", "cycleconn", "forestconn"}
	// goldenKinds names an algorithm's two input shapes; the graph
	// algorithms without an entry run gnm and powerlaw.
	goldenKinds = map[string][]string{
		"listrank":   {"path", "lists"},
		"twocycle":   {"one", "two"},
		"cycleconn":  {"two", "many"},
		"forestconn": {"tree", "forest"},
	}
	goldenSeeds    = []uint64{1, 2, 3}
	goldenWorkers  = []int{1, 8}
	goldenBackends = []string{BackendMem, BackendFile}
)

// goldenDigest hashes a sequence of integers, little-endian.
type goldenDigest struct{ buf []byte }

func (d *goldenDigest) ints(xs ...int) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(x)))
	}
}

func (d *goldenDigest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func goldenGraph(kind string, n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed, 0x7)
	if kind == "powerlaw" {
		return graph.PowerLaw(n, m, r)
	}
	return graph.GNM(n, m, r)
}

// goldenCycles returns a cycle union on n vertices: two cycles of n/2, or
// many cycles of random lengths, ids permuted either way.
func goldenCycles(kind string, n int, seed uint64) *graph.Graph {
	r := rng.New(seed, 0x7)
	if kind == "two" {
		return graph.TwoCycleInstance(n, false, r)
	}
	var parts []*graph.Graph
	for left := n; left > 0; {
		l := 3 + r.Intn(300)
		if left-l < 3 {
			l = left
		}
		parts = append(parts, graph.Cycle(l))
		left -= l
	}
	return graph.Relabel(graph.Union(parts...), r.Perm(n))
}

// goldenList returns a successor vector over a random order of n
// elements: one list for path, about one break per hundred for lists.
func goldenList(kind string, n int, seed uint64) []int {
	r := rng.New(seed, 0x7)
	order := r.Perm(n)
	next := make([]int, n)
	for i, v := range order {
		next[v] = -1
		if i+1 < n && (kind == "path" || r.Intn(100) != 0) {
			next[v] = order[i+1]
		}
	}
	return next
}

// goldenStream returns the cell's edge stream: the uniform multigraph (with
// its duplicate edges) for gnm, an adapter over the materialized graph for
// powerlaw.
func goldenStream(kind string, n, m int, seed uint64) graph.EdgeStream {
	if kind == "powerlaw" {
		return graph.StreamOf(goldenGraph(kind, n, m, seed))
	}
	return graph.StreamGNM(n, m, seed)
}

// goldenRun executes one cell and returns its output digest and telemetry.
func goldenRun(algo, kind string, seed uint64, opts Options) (string, Telemetry, error) {
	ctx := context.Background()
	var d goldenDigest
	switch algo {
	case "connectivity":
		res, err := Connectivity(ctx, goldenGraph(kind, 1200, 4000, seed), opts)
		d.ints(res.Components...)
		return d.sum(), res.Telemetry, err
	case "stream-local":
		// 1+n+2m fits half a machine budget: the materialize shortcut.
		res, err := ConnectivityStream(ctx, goldenStream(kind, 60, 90, seed), opts)
		d.ints(res.Components...)
		return d.sum(), res.Telemetry, err
	case "stream-ingest":
		res, err := ConnectivityStream(ctx, goldenStream(kind, 900, 5000, seed), opts)
		d.ints(res.Components...)
		return d.sum(), res.Telemetry, err
	case "msf":
		g := goldenGraph(kind, 1000, 3500, seed)
		res, err := MSF(ctx, graph.WithRandomWeights(g, rng.New(seed, 0x8)), opts)
		for _, e := range res.Edges {
			d.ints(e.U, e.V, int(e.Weight))
		}
		return d.sum(), res.Telemetry, err
	case "forest":
		forest, labels, tel, err := SpanningForest(ctx, goldenGraph(kind, 1000, 3500, seed), opts)
		for _, e := range forest {
			d.ints(e.U, e.V)
		}
		d.ints(labels...)
		return d.sum(), tel, err
	case "affinity":
		g := goldenGraph(kind, 1000, 3500, seed)
		res, err := AffinityClustering(ctx, graph.WithRandomWeights(g, rng.New(seed, 0x8)), opts)
		for _, level := range res.Levels {
			d.ints(level...)
		}
		return d.sum(), res.Telemetry, err
	case "mis":
		res, err := MIS(ctx, goldenGraph(kind, 1200, 4000, seed), opts)
		for _, in := range res.InMIS {
			d.ints(btoi(in))
		}
		return d.sum(), res.Telemetry, err
	case "matching":
		res, err := MaximalMatching(ctx, goldenGraph(kind, 1200, 4000, seed), opts)
		for _, in := range res.Matched {
			d.ints(btoi(in))
		}
		return d.sum(), res.Telemetry, err
	case "coloring":
		res, err := GreedyColoring(ctx, goldenGraph(kind, 1200, 4000, seed), opts)
		d.ints(res.Color...)
		return d.sum(), res.Telemetry, err
	case "biconn":
		res, err := Biconnectivity(ctx, goldenGraph(kind, 1000, 2000, seed), opts)
		for _, e := range res.Bridges {
			d.ints(e.U, e.V)
		}
		d.ints(res.ArticulationPoints...)
		d.ints(res.TwoEdgeComponents...)
		d.ints(res.BlockLabel...)
		return d.sum(), res.Telemetry, err
	case "listrank":
		res, err := ListRanking(ctx, goldenList(kind, 3000, seed), opts)
		d.ints(res.Rank...)
		return d.sum(), res.Telemetry, err
	case "twocycle":
		res, err := TwoCycle(ctx, graph.TwoCycleInstance(2000, kind == "one", rng.New(seed, 0x7)), opts)
		d.ints(btoi(res.SingleCycle))
		return d.sum(), res.Telemetry, err
	case "cycleconn":
		res, err := CycleConnectivity(ctx, goldenCycles(kind, 2000, seed), opts)
		d.ints(res.Components...)
		return d.sum(), res.Telemetry, err
	case "forestconn":
		r := rng.New(seed, 0x7)
		g := graph.RandomTree(1500, r)
		if kind == "forest" {
			g = graph.RandomForest(1500, 20, r)
		}
		res, err := ForestConnectivity(ctx, g, opts)
		d.ints(res.Components...)
		return d.sum(), res.Telemetry, err
	}
	return "", Telemetry{}, fmt.Errorf("unknown golden algorithm %q", algo)
}

func goldenLine(algo, kind string, seed uint64, workers int, backend, sha string, t Telemetry) string {
	return fmt.Sprintf("%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%s",
		algo, kind, seed, workers, backend,
		t.Rounds, t.Phases, t.TotalQueries, t.TotalWrites, t.MaxMachineQueries, sha)
}

const goldenHeader = "# algo\tkind\tseed\tworkers\tbackend\trounds\tphases\tqueries\twrites\tmax_machine_queries\tsha256"

func TestGoldenDriverTable(t *testing.T) {
	want := map[string]string{} // cell key (first five columns) -> full line
	if !*updateGolden {
		f, err := os.Open(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			cols := strings.Split(line, "\t")
			if len(cols) != 11 {
				t.Fatalf("malformed golden line %q", line)
			}
			want[strings.Join(cols[:5], "\t")] = line
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	lines := []string{goldenHeader}
	cells := 0
	for _, algo := range goldenAlgos {
		kinds := goldenKinds[algo]
		if kinds == nil {
			kinds = []string{"gnm", "powerlaw"}
		}
		for _, kind := range kinds {
			for _, seed := range goldenSeeds {
				for _, workers := range goldenWorkers {
					for _, backend := range goldenBackends {
						opts := Options{Seed: seed, Workers: workers, Backend: backend}
						if backend == BackendFile {
							opts.StoreDir = t.TempDir()
						}
						sha, tel, err := goldenRun(algo, kind, seed, opts)
						if err != nil {
							t.Fatalf("%s/%s seed %d workers %d %s: %v", algo, kind, seed, workers, backend, err)
						}
						got := goldenLine(algo, kind, seed, workers, backend, sha, tel)
						lines = append(lines, got)
						cells++
						if *updateGolden {
							continue
						}
						key := strings.Join(strings.Split(got, "\t")[:5], "\t")
						if w, ok := want[key]; !ok {
							t.Errorf("cell %q missing from %s", key, goldenPath)
						} else if w != got {
							t.Errorf("golden mismatch\n got %s\nwant %s", got, w)
						}
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", cells, goldenPath)
		return
	}
	if len(want) != cells {
		t.Errorf("%s holds %d cells, the grid has %d", goldenPath, len(want), cells)
	}
}
