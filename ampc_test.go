// Integration tests through the Engine: end-to-end pipelines that combine
// several algorithms the way an application would, plus property-based
// tests over randomized instances.
package ampc_test

import (
	"context"
	"testing"
	"testing/quick"

	"ampc"
)

// runChecked runs job through a fresh Engine with the given seed and the
// algorithm's oracle check on, failing the test on any error — an oracle
// mismatch included.
func runChecked(t *testing.T, job ampc.Job, seed uint64) *ampc.Result {
	t.Helper()
	job.Opts = &ampc.Options{Seed: seed}
	job.Check = true
	res, err := ampc.NewEngine(ampc.EngineOptions{}).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeMSFThenBridges(t *testing.T) {
	// Pipeline: build an MSF, then audit the tree — every MSF edge of a
	// connected graph's spanning tree is a bridge of the tree itself.
	r := ampc.NewRNG(2, 0)
	wg := ampc.WithRandomWeights(ampc.ConnectedGNM(300, 900, r), r)
	msf := runChecked(t, ampc.Job{Algo: "msf", Weighted: wg}, 3).Payload.(ampc.MSFResult)
	var treeEdges []ampc.Edge
	for _, e := range msf.Edges {
		treeEdges = append(treeEdges, ampc.Edge{U: e.U, V: e.V}.Canon())
	}
	tree, err := ampc.NewGraph(wg.N(), treeEdges)
	if err != nil {
		t.Fatal(err)
	}
	audit := runChecked(t, ampc.Job{Algo: "biconn", Graph: tree}, 4).Payload.(ampc.BiconnResult)
	if len(audit.Bridges) != tree.M() {
		t.Fatalf("tree audit found %d bridges, want all %d edges", len(audit.Bridges), tree.M())
	}
}

func TestFacadeMISAndMatchingConsistency(t *testing.T) {
	// The MIS of a graph and the maximal matching interact: matched edges
	// cannot have both endpoints in the MIS.
	r := ampc.NewRNG(3, 0)
	g := ampc.GNM(300, 900, r)
	mis := runChecked(t, ampc.Job{Algo: "mis", Graph: g}, 5).Payload.(ampc.MISResult)
	match := runChecked(t, ampc.Job{Algo: "matching", Graph: g}, 6).Payload.(ampc.MatchingResult)
	for e, in := range match.Matched {
		if !in {
			continue
		}
		edge := g.Edges()[e]
		if mis.InMIS[edge.U] && mis.InMIS[edge.V] {
			t.Fatalf("matched edge %v has both endpoints in the MIS (independence broken)", edge)
		}
	}
}

func TestFacadeColoringRespectsMIS(t *testing.T) {
	// Color classes are independent sets; class 0 of the greedy coloring
	// under permutation π is exactly LFMIS(g, π).
	r := ampc.NewRNG(4, 0)
	g := ampc.GNM(200, 500, r)
	col := runChecked(t, ampc.Job{Algo: "coloring", Graph: g}, 7)
	class0 := make([]bool, g.N())
	for v, c := range col.Labels {
		class0[v] = c == 0
	}
	if !ampc.IsMIS(g, class0) {
		t.Fatal("color class 0 is not the LFMIS")
	}
}

// The property tests below lean on the oracle check runChecked turns on;
// each adds only what the oracle does not pin.

func TestPropertyTwoCycleAlwaysCorrect(t *testing.T) {
	check := func(seed uint64, sizeRaw uint8, single bool) bool {
		n := (int(sizeRaw)%40 + 4) * 16 // 64..688, always even
		g := ampc.TwoCycleInstance(n, single, ampc.NewRNG(seed, 0))
		res := runChecked(t, ampc.Job{Algo: "twocycle", Graph: g}, seed)
		return res.Payload.(ampc.TwoCycleResult).SingleCycle == single
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConnectivityAlwaysMatchesBFS(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%150 + 10
		m := min(int(mRaw)%(2*n), n*(n-1)/2)
		g := ampc.GNM(n, m, ampc.NewRNG(seed, 1))
		return runChecked(t, ampc.Job{Algo: "connectivity", Graph: g}, seed).Check == ampc.CheckPassed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMSFAlwaysMatchesKruskal(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 10
		r := ampc.NewRNG(seed, 2)
		m := min(n+r.Intn(2*n), n*(n-1)/2)
		g := ampc.WithRandomWeights(ampc.GNM(n, m, r), r)
		edges := runChecked(t, ampc.Job{Algo: "msf", Weighted: g}, seed).Payload.(ampc.MSFResult).Edges
		// The oracle compares edge sets; the result is also weight-sorted.
		for i, e := range ampc.KruskalMSF(g) {
			if edges[i].Weight != e.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMISAlwaysValid(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%120 + 5
		m := min(int(mRaw)%(3*n), n*(n-1)/2)
		g := ampc.GNM(n, m, ampc.NewRNG(seed, 3))
		return runChecked(t, ampc.Job{Algo: "mis", Graph: g}, seed).Check == ampc.CheckPassed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyForestConnectivityAlwaysCorrect(t *testing.T) {
	check := func(seed uint64, nRaw, tRaw uint8) bool {
		n := int(nRaw)%200 + 2
		g := ampc.RandomForest(n, int(tRaw)%n+1, ampc.NewRNG(seed, 4))
		return runChecked(t, ampc.Job{Algo: "forestconn", Graph: g}, seed).Check == ampc.CheckPassed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBiconnectivityBridges(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 8
		r := ampc.NewRNG(seed, 5)
		m := min(n+r.Intn(n), n*(n-1)/2)
		g := ampc.GNM(n, m, r)
		bridges := runChecked(t, ampc.Job{Algo: "biconn", Graph: g}, seed).Payload.(ampc.BiconnResult).Bridges
		// The oracle compares bridge sets; the result is also in oracle order.
		for i, e := range ampc.BridgesOracle(g) {
			if bridges[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyListRankingRanksArePermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		order := ampc.NewRNG(seed, 6).Perm(n)
		next := make([]int, n)
		for i := 0; i < n-1; i++ {
			next[order[i]] = order[i+1]
		}
		next[order[n-1]] = -1
		return runChecked(t, ampc.Job{Algo: "listrank", Next: next}, seed).Check == ampc.CheckPassed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDeterminismAcrossAlgorithms(t *testing.T) {
	g := ampc.GNM(150, 400, ampc.NewRNG(9, 0))
	for _, algo := range []string{"connectivity", "mis", "matching"} {
		job := ampc.Job{Algo: algo, Graph: g}
		if a, b := runChecked(t, job, 42), runChecked(t, job, 42); a.Telemetry.TotalQueries != b.Telemetry.TotalQueries {
			t.Fatalf("%s: same seed gave different telemetry", algo)
		}
	}
}
