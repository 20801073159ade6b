package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// These tests exercise the model's fault-tolerance property (§2.1) at the
// algorithm level: because D_{i-1} is immutable within round i and machine
// randomness is a deterministic function of (seed, round, machine), killing
// and restarting machines mid-round must not change any algorithm output
// or its telemetry.

const faultProb = 0.25

func TestTwoCycleSurvivesFaults(t *testing.T) {
	r := rng.New(80, 0)
	g := graph.TwoCycleInstance(2048, false, r)
	clean, err := TwoCycle(context.Background(), g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := TwoCycle(context.Background(), g, Options{Seed: 5, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	if clean.SingleCycle != faulty.SingleCycle {
		t.Fatal("failure injection changed the 2-cycle answer")
	}
	if clean.Telemetry.Rounds != faulty.Telemetry.Rounds {
		t.Fatalf("failure injection changed rounds: %d vs %d",
			clean.Telemetry.Rounds, faulty.Telemetry.Rounds)
	}
}

func TestConnectivitySurvivesFaults(t *testing.T) {
	r := rng.New(81, 0)
	g := graph.GNM(400, 1200, r)
	clean, err := Connectivity(context.Background(), g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Connectivity(context.Background(), g, Options{Seed: 6, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Components {
		if clean.Components[v] != faulty.Components[v] {
			t.Fatalf("failure injection changed label of vertex %d", v)
		}
	}
}

func TestMISSurvivesFaults(t *testing.T) {
	r := rng.New(82, 0)
	g := graph.GNM(300, 900, r)
	clean, err := MIS(context.Background(), g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := MIS(context.Background(), g, Options{Seed: 7, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.InMIS {
		if clean.InMIS[v] != faulty.InMIS[v] {
			t.Fatalf("failure injection changed MIS membership of %d", v)
		}
	}
}

func TestMSFSurvivesFaults(t *testing.T) {
	r := rng.New(83, 0)
	g := graph.WithRandomWeights(graph.ConnectedGNM(250, 800, r), r)
	clean, err := MSF(context.Background(), g, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := MSF(context.Background(), g, Options{Seed: 8, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Edges) != len(faulty.Edges) {
		t.Fatal("failure injection changed MSF size")
	}
	for i := range clean.Edges {
		if clean.Edges[i] != faulty.Edges[i] {
			t.Fatalf("failure injection changed MSF edge %d", i)
		}
	}
}

func TestListRankingSurvivesFaults(t *testing.T) {
	next := makeChain(3000)
	clean, err := ListRanking(context.Background(), next, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := ListRanking(context.Background(), next, Options{Seed: 9, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Rank {
		if clean.Rank[v] != faulty.Rank[v] {
			t.Fatalf("failure injection changed rank of %d", v)
		}
	}
}

func TestForestConnectivitySurvivesFaults(t *testing.T) {
	r := rng.New(84, 0)
	g := graph.RandomForest(400, 6, r)
	clean, err := ForestConnectivity(context.Background(), g, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := ForestConnectivity(context.Background(), g, Options{Seed: 10, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Components {
		if clean.Components[v] != faulty.Components[v] {
			t.Fatal("failure injection changed forest labeling")
		}
	}
}

func TestBiconnectivitySurvivesFaults(t *testing.T) {
	r := rng.New(85, 0)
	g := graph.ConnectedGNM(150, 300, r)
	clean, err := Biconnectivity(context.Background(), g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Biconnectivity(context.Background(), g, Options{Seed: 11, FaultProb: faultProb})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Bridges) != len(faulty.Bridges) {
		t.Fatal("failure injection changed bridges")
	}
	for i := range clean.Bridges {
		if clean.Bridges[i] != faulty.Bridges[i] {
			t.Fatal("failure injection changed bridge set")
		}
	}
}

// lossyStore reads as its inner store with one key knocked out — the shape
// of a networked backend whose replicas were all exhausted: the key reads
// absent and the failure, if any, is latched for ReadErr.
type lossyStore struct {
	dds.StoreBackend
	drop    dds.Key
	latched error
}

func (s *lossyStore) Get(k dds.Key) (dds.Value, bool) {
	if k == s.drop {
		return dds.Value{}, false
	}
	return s.StoreBackend.Get(k)
}

func (s *lossyStore) GetMany(keys []dds.Key, vals []dds.Value, oks []bool) {
	s.StoreBackend.GetMany(keys, vals, oks)
	for i, k := range keys {
		if k == s.drop {
			vals[i], oks[i] = dds.Value{}, false
		}
	}
}

func (s *lossyStore) ReadErr() error { return s.latched }

// TestReadFoundMissingRecord is the fault injection for the silent-wrong-
// label bug: a found record the increase round wrote but the master cannot
// read back must fail the phase — it used to fold in as vertex 0 and could
// contract a vertex into leader 0 — and a latched backend failure must be
// the wrapped cause.
func TestReadFoundMissingRecord(t *testing.T) {
	g := graph.GNM(3000, 9000, rng.New(304, 0))
	for _, workers := range []int{1, 4} {
		d, err := newFlatDriver(g.N(), false, workers)
		if err != nil {
			t.Fatal(err)
		}
		gc := d.fromGraph(g)
		rt := Options{Seed: 3}.withDefaults().newRuntime(context.Background(), g.N(), g.M())
		defer rt.Close()
		if err := publishContracted(rt, gc, 1); err != nil {
			t.Fatal(err)
		}
		if err := increaseDegrees(rt, d.shuffled(gc.verts, rng.New(3, 1)), 4, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.readFound(rt.Store(), gc.verts); err != nil {
			t.Fatalf("clean read-back: %v", err)
		}
		// Knock out the second found record of the first vertex that has one.
		i := 0
		for d.off[i+1]-d.off[i] < 2 {
			i++
		}
		v := int64(gc.verts[i])
		lossy := &lossyStore{StoreBackend: rt.Store(), drop: dds.Key{Tag: tagConnFound, A: v, B: 1}}
		err = d.readFound(lossy, gc.verts)
		if want := fmt.Sprintf("core: missing found record (%d,1)", v); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: read-back over a lossy store returned %v, want %q", workers, err, want)
		}
		lossy.latched = fmt.Errorf("shard 3: %w", dds.ErrBackendUnavailable)
		err = d.readFound(lossy, gc.verts)
		if !errors.Is(err, dds.ErrBackendUnavailable) {
			t.Fatalf("workers=%d: latched read failure not wrapped: %v", workers, err)
		}
		// A missing size record is the same defect one step earlier.
		lossy = &lossyStore{StoreBackend: rt.Store(), drop: dds.Key{Tag: tagConnSize, A: v}}
		if err := d.readFound(lossy, gc.verts); err == nil {
			t.Fatalf("workers=%d: missing size record accepted", workers)
		}
	}
}

// TestSettleFoldLossyStore is the same fault for the three §5 query
// processes, whose fold-back legitimately allows absent statuses (a truncated
// element has none): a status that is absent because the backend lost it must
// not read as "unsettled" once the backend has latched the failure — the run
// used to burn its iterations and then report "failed to settle" — while
// without a latched failure it is just one more element to retry.
func TestSettleFoldLossyStore(t *testing.T) {
	const n = 20000 // several read-back chunks
	for _, tc := range []struct {
		name string
		tag  uint8
	}{{"mis", tagMISStatus}, {"match", tagMatchStatus}, {"color", tagColorStatus}} {
		rt := Options{Seed: 3}.withDefaults().newRuntime(context.Background(), n, 0)
		defer rt.Close()
		// Every third id is left without a status, as if truncated.
		err := rt.Round("statuses", func(ctx *ampc.Ctx) error {
			lo, hi := ampc.BlockRange(ctx.Machine, n, ctx.P)
			for id := lo; id < hi; id++ {
				if id%3 != 0 {
					ctx.Write(dds.Key{Tag: tc.tag, A: int64(id)}, dds.Value{A: 1})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pending := make([]int32, n)
		for i := range pending {
			pending[i] = int32(i)
		}
		for _, workers := range []int{1, 4} {
			rb := newReadback(workers)
			lossy := &lossyStore{StoreBackend: rt.Store(), drop: dds.Key{Tag: tc.tag, A: 7}}
			state := make([]int32, n)
			fold := func() error {
				return rb.perVertex(lossy, tc.tag, "", pending, func(i int, v dds.Value) { state[pending[i]] = int32(v.A) })
			}
			if err := fold(); err != nil {
				t.Fatalf("%s workers=%d: fold over a store with absent statuses: %v", tc.name, workers, err)
			}
			for id, st := range state {
				if want := id%3 != 0 && id != 7; (st != 0) != want {
					t.Fatalf("%s workers=%d: id %d folded as %d, settled should be %v", tc.name, workers, id, st, want)
				}
			}
			lossy.latched = fmt.Errorf("shard 3: %w", dds.ErrBackendUnavailable)
			err := fold()
			if !errors.Is(err, dds.ErrBackendUnavailable) {
				t.Fatalf("%s workers=%d: latched read failure not returned: %v", tc.name, workers, err)
			}
		}
	}
}

// TestMasterReadbackMissingRecord is the same fault for the master
// read-backs outside the flat driver: list ranking's contracted-level hops
// and final ranks, Shrink's marks, contracted cycle edges and parents, and
// MSF's locally committed edges. A record the previous round must have
// written and the master cannot read back used to fold in as zeros —
// successor 0 with weight 0, neighbours {0, 0} — and must instead be a
// typed missing-record error wrapping the backend's latched failure. Where
// absence is legitimate (an unmarked or unvisited vertex, the end of the
// committed list) a loss is undetectable until the backend latches its
// failure, so those rows want no error over the unlatched lossy store.
func TestMasterReadbackMissingRecord(t *testing.T) {
	samples := []int{3, 5, 8}
	keys := func(tag uint8, as []int, b int64) []dds.Key {
		var ks []dds.Key
		for _, a := range as {
			ks = append(ks, dds.Key{Tag: tag, A: int64(a), B: b})
		}
		return ks
	}
	cur := &cycleGraph{verts: samples, adj: map[int][2]int{3: {5, 8}, 5: {3, 8}, 8: {3, 5}}}
	for _, tc := range []struct {
		name string
		keys []dds.Key // records the previous round wrote
		drop dds.Key   // the one the lossy store loses
		want string    // error over the unlatched lossy store; "" for none
		read func(store dds.StoreBackend) error
	}{
		{"listrank-hop", keys(tagListNext, samples, 2), dds.Key{Tag: tagListNext, A: 5, B: 2},
			"core: missing list hop record (5,2)", func(store dds.StoreBackend) error {
				_, err := readListLevel(store, samples, 2)
				return err
			}},
		{"listrank-rank", keys(tagListD, []int{0, 1, 2, 3, 4, 5, 6}, 0), dds.Key{Tag: tagListD, A: 5},
			"core: missing list rank record (5,0)", func(store dds.StoreBackend) error {
				_, err := readRanks(store, 7)
				return err
			}},
		{"shrink-edge", keys(tagCycEdge, samples, 0), dds.Key{Tag: tagCycEdge, A: 5},
			"core: missing cycle edge record (5,0)", func(store dds.StoreBackend) error {
				_, err := readContracted(store, cur, samples, map[int]int{})
				return err
			}},
		{"shrink-mark", keys(tagCycMark, samples, 0), dds.Key{Tag: tagCycMark, A: 5},
			"", func(store dds.StoreBackend) error {
				_, err := readSamples(store, []int{1, 3, 5, 8})
				return err
			}},
		{"shrink-parent", keys(tagCycParent, samples, 0), dds.Key{Tag: tagCycParent, A: 5},
			"", func(store dds.StoreBackend) error {
				_, err := readContracted(store, cur, nil, map[int]int{})
				return err
			}},
		{"msf", []dds.Key{{Tag: tagMSFEdge, A: -1}, {Tag: tagMSFEdge, A: -1, B: 1}, {Tag: tagMSFEdge, A: -1, B: 2}}, dds.Key{Tag: tagMSFEdge, A: -1, B: 1},
			"", func(store dds.StoreBackend) error {
				return new(flatDriver).readCommitted(store)
			}},
	} {
		var pairs []dds.KV
		for _, k := range tc.keys {
			pairs = append(pairs, dds.KV{Key: k, Value: dds.Value{A: 8, B: 3}})
		}
		store := dds.NewStore(pairs, 4, 1)
		if err := tc.read(store); err != nil {
			t.Fatalf("%s: clean read-back: %v", tc.name, err)
		}
		lossy := &lossyStore{StoreBackend: store, drop: tc.drop}
		if err := tc.read(lossy); tc.want == "" && err != nil || tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Fatalf("%s: read-back over a lossy store returned %v, want %q", tc.name, err, tc.want)
		}
		lossy.latched = fmt.Errorf("shard 3: %w", dds.ErrBackendUnavailable)
		if err := tc.read(lossy); !errors.Is(err, dds.ErrBackendUnavailable) {
			t.Fatalf("%s: latched read failure not wrapped: %v", tc.name, err)
		}
	}
}
