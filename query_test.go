package ampc

import (
	"context"
	"errors"
	"testing"

	"ampc/internal/core"
)

// runRetained executes one job with Options.RetainStore and returns its
// result and query handler, registering cleanup for the handler's store.
func runRetained(t *testing.T, eng *Engine, job Job) (*Result, QueryHandler) {
	t.Helper()
	res, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run %s: %v", job.Algo, err)
	}
	h, err := eng.Query(res)
	if err != nil {
		t.Fatalf("query %s: %v", job.Algo, err)
	}
	t.Cleanup(func() { h.Close() })
	return res, h
}

func TestQueryConnectivityLabels(t *testing.T) {
	eng := NewEngine(EngineOptions{Defaults: Options{RetainStore: true}})
	g := GNM(200, 300, NewRNG(7, 0))
	res, h := runRetained(t, eng, Job{Algo: "connectivity", Graph: g, Check: true})

	if got, want := h.Kinds()[0], "label"; got != want {
		t.Fatalf("primary kind = %q, want %q", got, want)
	}
	if h.Len() != g.N() {
		t.Fatalf("Len = %d, want %d", h.Len(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		lab, ok, err := h.Lookup("label", v)
		if err != nil || !ok {
			t.Fatalf("Lookup(label, %d) = _, %v, %v", v, ok, err)
		}
		if lab != res.Labels[v] {
			t.Fatalf("label[%d] = %d from store, %d from result", v, lab, res.Labels[v])
		}
	}
	if _, ok, err := h.Lookup("label", g.N()); ok || err != nil {
		t.Fatalf("out-of-range lookup = %v, %v; want !ok, nil", ok, err)
	}
	if _, ok, err := h.Lookup("label", -1); ok || err != nil {
		t.Fatalf("negative lookup = %v, %v; want !ok, nil", ok, err)
	}
	if _, _, err := h.Lookup("rank", 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestQueryMSFComponents(t *testing.T) {
	eng := NewEngine(EngineOptions{Defaults: Options{RetainStore: true}})
	g := WithRandomWeights(GNM(150, 220, NewRNG(11, 0)), NewRNG(11, 1))
	res, h := runRetained(t, eng, Job{Algo: "msf", Weighted: g, Check: true})

	comps := res.Payload.(core.MSFResult).Components
	if comps == nil {
		t.Fatal("MSFResult.Components not populated under RetainStore")
	}
	if h.Len() != g.N() {
		t.Fatalf("Len = %d, want %d", h.Len(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		c, ok, err := h.Lookup("component", v)
		if err != nil || !ok {
			t.Fatalf("Lookup(component, %d) = _, %v, %v", v, ok, err)
		}
		if c != comps[v] {
			t.Fatalf("component[%d] = %d from store, %d from result", v, c, comps[v])
		}
	}
	// MSF components are connectivity components of the underlying graph.
	if !SameLabeling(comps, Components(g.Graph)) {
		t.Fatal("MSF component partition disagrees with the connectivity oracle")
	}
}

func TestQueryListRanks(t *testing.T) {
	eng := NewEngine(EngineOptions{Defaults: Options{RetainStore: true}})
	n := 257
	next := make([]int, n)
	for i := range next {
		next[i] = i + 1
	}
	next[n-1] = -1
	res, h := runRetained(t, eng, Job{Algo: "listrank", Next: next, Check: true})

	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for v := 0; v < n; v++ {
		r, ok, err := h.Lookup("rank", v)
		if err != nil || !ok {
			t.Fatalf("Lookup(rank, %d) = _, %v, %v", v, ok, err)
		}
		if r != res.Labels[v] {
			t.Fatalf("rank[%d] = %d from store, %d from result", v, r, res.Labels[v])
		}
	}
}

func TestQueryNotQueryable(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	g := GNM(50, 80, NewRNG(3, 0))

	// Run without RetainStore: hook present, no retained store.
	res, err := eng.Run(context.Background(), Job{Algo: "connectivity", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(res); !errors.Is(err, ErrNotQueryable) {
		t.Fatalf("Query without RetainStore: %v, want ErrNotQueryable", err)
	}

	// Algorithm that registered no query hook.
	res, err = eng.Run(context.Background(), Job{Algo: "mis", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(res); !errors.Is(err, ErrNotQueryable) {
		t.Fatalf("Query of hookless algorithm: %v, want ErrNotQueryable", err)
	}
}

func TestRetainStoreRejectedWithRPCBackend(t *testing.T) {
	eng := NewEngine(EngineOptions{Defaults: Options{
		RetainStore: true,
		Backend:     BackendRPC,
		Servers:     []string{"127.0.0.1:1"},
	}})
	_, err := eng.Run(context.Background(), Job{Algo: "connectivity", Graph: GNM(10, 12, NewRNG(1, 0))})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("RetainStore + rpc backend: %v, want ErrInvalidOptions", err)
	}
}

// TestRetainStoreLeavesPipelinesUnchanged: a pipeline returns its output
// and serves none of its stages' stores, so RetainStore must not add a
// serve-publish round, or its writes, to any stage.
func TestRetainStoreLeavesPipelinesUnchanged(t *testing.T) {
	type cost struct {
		rounds          int
		queries, writes int64
	}
	of := func(tel Telemetry) cost { return cost{tel.Rounds, tel.TotalQueries, tel.TotalWrites} }
	g := GNM(2000, 8000, NewRNG(1, 0))
	tree := RandomTree(2000, NewRNG(1, 1))
	run := func(retain bool) map[string]cost {
		opts := Options{Seed: 1, RetainStore: retain}
		eng := NewEngine(EngineOptions{Defaults: opts})
		got := map[string]cost{}
		for _, algo := range []string{"biconn", "spanningforest"} {
			res, err := eng.Run(context.Background(), Job{Algo: algo, Graph: g, Check: true})
			if err != nil {
				t.Fatalf("%s (retain %v): %v", algo, retain, err)
			}
			if _, err := eng.Query(res); !errors.Is(err, ErrNotQueryable) {
				t.Fatalf("%s (retain %v): Query = %v, want ErrNotQueryable", algo, retain, err)
			}
			got[algo] = of(res.Telemetry)
		}
		rf, err := RootForest(context.Background(), tree, []int{0}, opts)
		if err != nil {
			t.Fatalf("RootForest (retain %v): %v", retain, err)
		}
		got["rootforest"] = of(rf.Telemetry)
		return got
	}
	plain, retained := run(false), run(true)
	for name, want := range plain {
		if got := retained[name]; got != want {
			t.Errorf("%s: RetainStore changed rounds/queries/writes %+v -> %+v", name, want, got)
		}
	}
}
