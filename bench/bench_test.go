package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: runAll
// re-executes os.Executable() for every pass, and under `go test` that is
// this binary, so a child marked by childEnv runs main instead of tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, s := range workloads {
		a, b, c := s.makeInput(7, true), s.makeInput(7, true), s.makeInput(8, true)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated two different inputs", s.Name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same input", s.Name)
		}
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// Nearest rank over 1..10: p50 is the 5th value, p99 the 10th, p10 the 1st.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 with children 10..30, 20..50 (overlapping: union 10..50)
	// and 70..120 (clipped to 70..100): covered 40+30, self 30. The first
	// child has its own child 10..15: self 15.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 70, End: 120},
		{ID: 4, Parent: 1, Start: 10, End: 15},
	}
	fillSelf(spans)
	for id, want := range []int64{30, 15, 30, 50, 5} {
		if spans[id].Self != want {
			t.Errorf("span %d self = %d, want %d", id, spans[id].Self, want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, 2ms schedule; operation 0 stalls for 30ms. Operations
	// 1..4 are instantaneous but were due during the stall, so measured
	// from their due times they waited most of it; measured from their
	// sends they would all be about zero.
	const interval = 2 * time.Millisecond
	lat, late, _ := runOpenLoop(5, 1, interval, func(i int, sent time.Time) time.Time {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return time.Now()
	})
	for i := 1; i < 5; i++ {
		wantAtLeast := float64((30*time.Millisecond - time.Duration(i)*interval).Microseconds())
		if lat[i] < wantAtLeast {
			t.Errorf("op %d: latency %v us from due time, want at least %v", i, lat[i], wantAtLeast)
		}
		if late[i] < wantAtLeast {
			t.Errorf("op %d: generator lateness %v us, want at least %v", i, late[i], wantAtLeast)
		}
	}
	if late[0] > 20000 {
		t.Errorf("op 0 was sent %v us late with an idle worker", late[0])
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// tables saying the same thing.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := readJSON(benchmarkPath, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd)
	check("per_layer", bm.PerLayer, perLayer)
}

func TestCompare(t *testing.T) {
	doc := func(wall float64, failed int) document {
		return document{Workloads: map[string]passResults{"cc-gnm-mem": {EndToEnd: newResult(endToEnd,
			map[string]float64{"wall_s": wall, "setup_s": 2, "rss_peak_mb": 600}, 10, failed)}}}
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		data, _ := json.Marshal(d)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc(2.0, 0))
	var out bytes.Buffer
	if code := runCompare(&out, base, write("same.json", doc(2.0*(1+endToEnd[0].Bound/2), 0))); code != 0 {
		t.Errorf("half the bound worse: exit %d, want 0\n%s", code, out.String())
	}
	if code := runCompare(&out, base, write("slow.json", doc(2.0*(1+endToEnd[0].Bound*2), 0))); code != 1 {
		t.Errorf("twice the bound worse: exit %d, want 1", code)
	}
	if code := runCompare(&out, base, write("fail.json", doc(2.0, 1))); code != 1 {
		t.Errorf("fail ratio rose: exit %d, want 1", code)
	}
	if w := worsening(100, 90, "higher"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening(100, 90, higher) = %v, want 0.1", w)
	}
}

// TestQuickSmoke runs both passes of all five workloads at 0.05 scale,
// building and launching ampcd, the way `go run -C bench . -quick` does.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches ampcd and a shard fleet")
	}
	out := filepath.Join(t.TempDir(), "quick.json")
	var stdout bytes.Buffer
	start := time.Now()
	if code := run([]string{"-quick", "-out", out}, &stdout); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s", code, stdout.String())
	}
	t.Logf("bench -quick took %v", time.Since(start))
	var doc document
	if err := readJSON(out, &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range workloads {
		pr, ok := doc.Workloads[s.Name]
		if !ok {
			t.Errorf("%s missing from the document", s.Name)
			continue
		}
		for _, r := range []result{pr.EndToEnd, pr.PerLayer} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d", s.Name, r.Correct, r.Failed, r.Attempted)
			}
		}
		for _, d := range endToEnd {
			if v := pr.EndToEnd.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", s.Name, d.Name, v, d.Unit)
			}
		}
		if len(pr.PerLayer.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", s.Name, len(pr.PerLayer.Metrics), len(perLayer))
		}
	}
	if doc.Meta.GOMAXPROCS < 1 || doc.Meta.GoVersion == "" || len(doc.Meta.Loops) != len(workloads) {
		t.Errorf("meta block incomplete: %+v", doc.Meta)
	}
	var tf traceFile
	if err := readJSON(filepath.Join("out", "trace.json"), &tf); err != nil {
		t.Fatal(err)
	}
	for _, s := range workloads {
		if len(tf.Workloads[s.Name].Spans) == 0 {
			t.Errorf("out/trace.json has no spans for %s", s.Name)
		}
	}
}
