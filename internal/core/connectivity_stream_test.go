package core

import (
	"context"
	"testing"

	"ampc/internal/graph"
	"ampc/internal/rng"
)

// TestConnectivityStreamMatchesOracle runs the streamed driver over both
// stream kinds — synthetic mgnm multigraphs and adapters over materialized
// fixtures — and verifies every labeling against the union-find replay. The
// sizes straddle the local-solve shortcut and the streamed-ingest path.
func TestConnectivityStreamMatchesOracle(t *testing.T) {
	r := rng.New(60, 0)
	streams := []struct {
		name string
		es   graph.EdgeStream
	}{
		{"mgnm-empty", graph.StreamGNM(40, 0, 1)},
		{"mgnm-tiny", graph.StreamGNM(50, 60, 2)},
		{"mgnm-sparse", graph.StreamGNM(2000, 2400, 3)},
		{"mgnm-dense", graph.StreamGNM(400, 6000, 4)},
		{"mgnm-supersparse", graph.StreamGNM(5000, 800, 5)},
		{"grid", graph.StreamOf(graph.Grid(20, 20))},
		{"path", graph.StreamOf(graph.Path(900))},
		{"two-comps", graph.StreamOf(graph.Union(graph.ConnectedGNM(150, 400, r), graph.ConnectedGNM(90, 250, r)))},
	}
	for _, tc := range streams {
		res, err := ConnectivityStream(context.Background(), tc.es, Options{Seed: 13})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !ConnectivityStreamCheck(tc.es, res.Components) {
			t.Fatalf("%s: labeling fails the union-find oracle", tc.name)
		}
	}
}

// TestConnectivityStreamReportsInputFreeze: the streamed ingest freezes D0
// outside every round, and the slot tables it allocates must still reach
// the report's FreshTableBytes — at least a 20-byte slot per record of its
// 2m adjacency records — on top of the rounds' own.
func TestConnectivityStreamReportsInputFreeze(t *testing.T) {
	const n, m = 2000, 2400
	res, err := ConnectivityStream(context.Background(), graph.StreamGNM(n, m, 3), Options{Seed: 13, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	var rounds int64
	for _, st := range tel.RoundStats {
		rounds += st.FreshTableBytes
	}
	if input := tel.FreshTableBytes - rounds; input < 20*2*m {
		t.Fatalf("FreshTableBytes %d is the rounds' %d plus %d for the input freeze, want at least %d",
			tel.FreshTableBytes, rounds, input, 20*2*m)
	}
}

// TestConnectivityStreamMatchesMaterialized asserts the streamed driver and
// the materialized driver agree on component structure for the same graph —
// they may pick different representatives, so the comparison is up to
// relabeling.
func TestConnectivityStreamMatchesMaterialized(t *testing.T) {
	r := rng.New(61, 0)
	g := graph.GNM(800, 1800, r)
	mat, err := Connectivity(context.Background(), g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	str, err := ConnectivityStream(context.Background(), graph.StreamOf(g), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameLabeling(str.Components, mat.Components) {
		t.Fatal("streamed and materialized drivers disagree on components")
	}
}

// TestConnectivityStreamBackendsIdentical is the out-of-core differential:
// the same streamed workload must produce byte-identical labelings on the
// in-memory and the file backend, at build parallelism 1 and 8. Backend
// choice is a performance knob — any divergence here means the write-behind
// publish changed an answer.
func TestConnectivityStreamBackendsIdentical(t *testing.T) {
	es := graph.StreamGNM(3000, 9000, 11)
	var want []int
	for _, workers := range []int{1, 8} {
		for _, backend := range []string{BackendMem, BackendFile} {
			res, err := ConnectivityStream(context.Background(), es, Options{
				Seed:    5,
				Workers: workers,
				Backend: backend,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", backend, workers, err)
			}
			if want == nil {
				want = res.Components
				if !ConnectivityStreamCheck(es, want) {
					t.Fatal("reference labeling fails the oracle")
				}
				continue
			}
			for v := range want {
				if res.Components[v] != want[v] {
					t.Fatalf("%s workers=%d: vertex %d labeled %d, mem/workers=1 labeled %d",
						backend, workers, v, res.Components[v], want[v])
				}
			}
		}
	}
}

// TestConnectivityStreamDeterministic pins run-to-run determinism of the
// streamed path: same stream, same seed, same labeling and telemetry.
func TestConnectivityStreamDeterministic(t *testing.T) {
	es := graph.StreamGNM(1500, 4000, 23)
	a, err := ConnectivityStream(context.Background(), es, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConnectivityStream(context.Background(), es, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Components {
		if a.Components[v] != b.Components[v] {
			t.Fatal("same seed, different labelings")
		}
	}
	if a.Telemetry.Rounds != b.Telemetry.Rounds || a.Telemetry.TotalQueries != b.Telemetry.TotalQueries {
		t.Fatal("same seed, different telemetry")
	}
}

// TestConnectivityStreamRejectsBadOptions mirrors the materialized entry
// point's validation, including the ignored Residency field's verdicts.
func TestConnectivityStreamRejectsBadOptions(t *testing.T) {
	es := graph.StreamGNM(10, 5, 1)
	if _, err := ConnectivityStream(context.Background(), es, Options{Epsilon: 2}); err == nil {
		t.Fatal("bad epsilon accepted")
	}
	if _, err := ConnectivityStream(context.Background(), es, Options{Residency: "drop"}); err == nil {
		t.Fatal("drop residency without the file backend accepted")
	}
	if _, err := ConnectivityStream(context.Background(), es, Options{Backend: BackendFile, Residency: "paged"}); err == nil {
		t.Fatal("unknown residency accepted")
	}
}

// TestConnectivityStreamCheckRejectsWrongLabels exercises the oracle itself:
// a labeling that merges components, splits one, or points at a foreign
// representative must be rejected.
func TestConnectivityStreamCheckRejectsWrongLabels(t *testing.T) {
	es := graph.StreamOf(graph.Union(graph.Path(4), graph.Path(3)))
	res, err := ConnectivityStream(context.Background(), es, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := res.Components
	if !ConnectivityStreamCheck(es, good) {
		t.Fatal("correct labeling rejected")
	}
	merged := append([]int(nil), good...)
	for v := range merged {
		merged[v] = good[0] // everything in component 0
	}
	if ConnectivityStreamCheck(es, merged) {
		t.Fatal("merged labeling accepted")
	}
	split := append([]int(nil), good...)
	split[1] = 1 // vertex 1 points at itself inside a larger component
	if split[1] == good[1] {
		split[1] = 2
	}
	if ConnectivityStreamCheck(es, split) {
		t.Fatal("split labeling accepted")
	}
	if ConnectivityStreamCheck(es, good[:len(good)-1]) {
		t.Fatal("short labeling accepted")
	}
	out := append([]int(nil), good...)
	out[0] = -1
	if ConnectivityStreamCheck(es, out) {
		t.Fatal("out-of-range label accepted")
	}
}

// TestConnectivityStreamRetainStore covers the retained-store path of the
// streamed driver: the retained store's serving labels, read through
// ServeKey, are exactly the returned labeling.
func TestConnectivityStreamRetainStore(t *testing.T) {
	es := graph.StreamGNM(600, 1500, 31)
	res, err := ConnectivityStream(context.Background(), es, Options{
		Seed: 2, Backend: BackendFile, RetainStore: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store == nil {
		t.Fatal("RetainStore produced no store")
	}
	defer res.Store.Close()
	for _, v := range []int{0, 17, 299, 599} {
		got, ok := res.Store.Get(ServeKey(v))
		if !ok || int(got.A) != res.Components[v] {
			t.Fatalf("Get(ServeKey(%d)) = %d,%v want %d", v, got.A, ok, res.Components[v])
		}
	}
}
