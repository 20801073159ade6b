package ampc

import (
	"context"
	"fmt"

	"ampc/internal/core"
	"ampc/internal/graph"
)

// SpanningForestResult packages core.SpanningForest's outputs for the
// registry path.
type SpanningForestResult struct {
	// Edges is the spanning forest as original edges.
	Edges []Edge
	// Components is the connectivity labeling the forest induces.
	Components []int
	// Telemetry is the measured cost.
	Telemetry Telemetry
}

// countLabels returns the number of distinct values in a labeling.
func countLabels(labels []int) int {
	set := make(map[int]bool, 16)
	for _, l := range labels {
		set[l] = true
	}
	return len(set)
}

// boolCount returns the number of true entries of a membership vector.
func boolCount(in []bool) int {
	n := 0
	for _, b := range in {
		if b {
			n++
		}
	}
	return n
}

// sameEdges reports whether two canonical edge lists contain the same
// edges, in any order.
func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[graph.Edge]bool, len(a))
	for _, e := range a {
		set[e.Canon()] = true
	}
	for _, e := range b {
		if !set[e.Canon()] {
			return false
		}
	}
	return true
}

// listRankOracle sequentially ranks the lists described by next, assuming
// the input already passed ListRanking's structural validation.
func listRankOracle(next []int) []int {
	n := len(next)
	rank := make([]int, n)
	isHead := make([]bool, n)
	for i := range isHead {
		isHead[i] = true
	}
	for _, s := range next {
		if s >= 0 && s < n {
			isHead[s] = false
		}
	}
	for h := 0; h < n; h++ {
		if !isHead[h] {
			continue
		}
		r := 0
		for v := h; v >= 0; v = next[v] {
			rank[v] = r
			r++
		}
	}
	return rank
}

// The paper's algorithms, registered under their CLI names. Section
// numbers refer to arXiv:1905.07533.
func init() {
	Register(AlgorithmSpec{
		Name:        "twocycle",
		Description: "decide one cycle vs two in O(1/ε) rounds (§4)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.TwoCycle(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Payload:   res,
				Summary:   fmt.Sprintf("single cycle = %v", res.SingleCycle),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			want := countLabels(graph.Components(job.Graph)) == 1
			if got := res.Payload.(core.TwoCycleResult).SingleCycle; got != want {
				return fmt.Errorf("SingleCycle = %v, oracle says %v", got, want)
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "mis",
		Description: "maximal independent set in O(1/ε) rounds w.h.p. (§5)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.MIS(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Payload:   res,
				Summary:   fmt.Sprintf("MIS size = %d", boolCount(res.InMIS)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if !graph.IsMIS(job.Graph, res.Payload.(core.MISResult).InMIS) {
				return fmt.Errorf("output is not a maximal independent set")
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "matching",
		Description: "maximal matching via the §5 query process (§10)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.MaximalMatching(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Payload:   res,
				Summary:   fmt.Sprintf("matching size = %d", boolCount(res.Matched)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if !graph.IsMaximalMatching(job.Graph, res.Payload.(core.MatchingResult).Matched) {
				return fmt.Errorf("output is not a maximal matching")
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "coloring",
		Description: "greedy (Δ+1)-coloring via the §5 query process (§10)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.GreedyColoring(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			colors := 0
			for _, c := range res.Color {
				if c+1 > colors {
					colors = c + 1
				}
			}
			return &Result{
				Labels:    res.Color,
				Payload:   res,
				Summary:   fmt.Sprintf("%d colors (Δ+1 = %d)", colors, job.Graph.MaxDeg()+1),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if !graph.IsProperColoring(job.Graph, res.Labels) {
				return fmt.Errorf("coloring is not proper")
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:          "connectivity",
		Description:   "connected components in O(log log n + 1/ε) phases w.h.p. (§6)",
		Input:         InputGraph,
		AcceptsStream: true,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			var res core.ConnectivityResult
			var err error
			if job.Stream != nil {
				res, err = core.ConnectivityStream(ctx, job.Stream, opts)
			} else {
				res, err = core.Connectivity(ctx, job.Graph, opts)
			}
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:    res.Components,
				Payload:   res,
				Summary:   fmt.Sprintf("%d components", countLabels(res.Components)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if job.Stream != nil {
				// Streamed inputs may be too large to materialize: verify
				// against a sequential union-find replay of the stream.
				if !core.ConnectivityStreamCheck(job.Stream, res.Labels) {
					return fmt.Errorf("components differ from the union-find replay of the stream")
				}
				return nil
			}
			if !graph.SameLabeling(res.Labels, graph.Components(job.Graph)) {
				return fmt.Errorf("components differ from the BFS oracle")
			}
			return nil
		},
		Query: func(res *Result) (QueryHandler, error) {
			r := res.Payload.(core.ConnectivityResult)
			return retained("label", len(r.Components), r.Store)
		},
	})

	Register(AlgorithmSpec{
		Name:        "msf",
		Description: "minimum spanning forest in O(log log n + 1/ε) phases w.h.p. (§7)",
		Input:       InputWeightedGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.MSF(ctx, job.Weighted, opts)
			if err != nil {
				return nil, err
			}
			var total int64
			for _, e := range res.Edges {
				total += e.Weight
			}
			return &Result{
				Payload:   res,
				Summary:   fmt.Sprintf("%d MSF edges, total weight %d", len(res.Edges), total),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			got := res.Payload.(core.MSFResult).Edges
			want := graph.KruskalMSF(job.Weighted)
			if len(got) != len(want) {
				return fmt.Errorf("%d edges, Kruskal has %d", len(got), len(want))
			}
			// Distinct weights make the MSF unique. Membership is checked
			// from the oracle side (every Kruskal weight must appear in the
			// output): with equal lengths and distinct oracle weights this
			// implies set equality, and a duplicated output edge cannot
			// mask a missing one.
			weights := make(map[int64]bool, len(got))
			for _, e := range got {
				weights[e.Weight] = true
			}
			for _, e := range want {
				if !weights[e.Weight] {
					return fmt.Errorf("Kruskal edge of weight %d missing from the output", e.Weight)
				}
			}
			return nil
		},
		Query: func(res *Result) (QueryHandler, error) {
			r := res.Payload.(core.MSFResult)
			return retained("component", len(r.Components), r.Store)
		},
	})

	Register(AlgorithmSpec{
		Name:        "spanningforest",
		Description: "arbitrary spanning forest via MSF over edge indices (Corollary 7.2)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			edges, labels, tel, err := core.SpanningForest(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:    labels,
				Payload:   SpanningForestResult{Edges: edges, Components: labels, Telemetry: tel},
				Summary:   fmt.Sprintf("%d forest edges, %d components", len(edges), countLabels(labels)),
				Telemetry: tel,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			sf := res.Payload.(SpanningForestResult)
			if !graph.SameLabeling(sf.Components, graph.Components(job.Graph)) {
				return fmt.Errorf("labeling differs from the BFS oracle")
			}
			if want := job.Graph.N() - countLabels(sf.Components); len(sf.Edges) != want {
				return fmt.Errorf("%d forest edges, want %d", len(sf.Edges), want)
			}
			for _, e := range sf.Edges {
				if !job.Graph.HasEdge(e.U, e.V) {
					return fmt.Errorf("forest edge (%d,%d) not in the input", e.U, e.V)
				}
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "cycleconn",
		Description: "components of disjoint cycle unions in O(1/ε) rounds (§8, Algorithm 10)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.CycleConnectivity(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:    res.Components,
				Payload:   res,
				Summary:   fmt.Sprintf("%d cycles", countLabels(res.Components)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if !graph.SameLabeling(res.Labels, graph.Components(job.Graph)) {
				return fmt.Errorf("components differ from the BFS oracle")
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "forestconn",
		Description: "components of forests via Euler tours in O(1/ε) rounds (§8, Theorem 5)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.ForestConnectivity(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:    res.Components,
				Payload:   res,
				Summary:   fmt.Sprintf("%d trees", countLabels(res.Components)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			if !graph.SameLabeling(res.Labels, graph.Components(job.Graph)) {
				return fmt.Errorf("components differ from the BFS oracle")
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "listrank",
		Description: "list ranking in O(1/ε) rounds (§8.1, Theorem 6)",
		Input:       InputList,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.ListRanking(ctx, job.Next, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:    res.Rank,
				Payload:   res,
				Summary:   fmt.Sprintf("ranked %d elements", len(res.Rank)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			want := listRankOracle(job.Next)
			for v, r := range res.Labels {
				if r != want[v] {
					return fmt.Errorf("rank[%d] = %d, oracle %d", v, r, want[v])
				}
			}
			return nil
		},
		Query: func(res *Result) (QueryHandler, error) {
			r := res.Payload.(core.ListRankingResult)
			return retained("rank", len(r.Rank), r.Store)
		},
	})

	Register(AlgorithmSpec{
		Name:        "biconn",
		Description: "bridges, articulation points and 2-edge components via BC-labeling (§9)",
		Input:       InputGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.Biconnectivity(ctx, job.Graph, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Labels:  res.TwoEdgeComponents,
				Payload: res,
				Summary: fmt.Sprintf("%d bridges, %d articulation points, %d 2-edge components",
					len(res.Bridges), len(res.ArticulationPoints), countLabels(res.TwoEdgeComponents)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			bc := res.Payload.(core.BiconnResult)
			if !sameEdges(bc.Bridges, graph.Bridges(job.Graph)) {
				return fmt.Errorf("bridges differ from Tarjan's oracle")
			}
			wantAPs := graph.ArticulationPoints(job.Graph)
			if len(bc.ArticulationPoints) != len(wantAPs) {
				return fmt.Errorf("%d articulation points, oracle has %d",
					len(bc.ArticulationPoints), len(wantAPs))
			}
			// As with sameEdges, membership is checked from the oracle side
			// so a duplicated output vertex cannot mask a missing one.
			aps := make(map[int]bool, len(bc.ArticulationPoints))
			for _, v := range bc.ArticulationPoints {
				aps[v] = true
			}
			for _, v := range wantAPs {
				if !aps[v] {
					return fmt.Errorf("articulation point %d missing from the output", v)
				}
			}
			return nil
		},
	})

	Register(AlgorithmSpec{
		Name:        "affinity",
		Description: "affinity hierarchical clustering of Bateni et al. (paper intro)",
		Input:       InputWeightedGraph,
		Run: func(ctx context.Context, job Job, opts Options) (*Result, error) {
			res, err := core.AffinityClustering(ctx, job.Weighted, opts)
			if err != nil {
				return nil, err
			}
			var labels []int
			if len(res.Levels) > 0 {
				labels = res.Levels[len(res.Levels)-1]
			}
			return &Result{
				Labels:    labels,
				Payload:   res,
				Summary:   fmt.Sprintf("%d levels", len(res.Levels)),
				Telemetry: res.Telemetry,
			}, nil
		},
		Check: func(job Job, res *Result) error {
			got := res.Payload.(core.AffinityResult).Levels
			want := core.AffinityOracle(job.Weighted)
			if len(got) != len(want) {
				return fmt.Errorf("%d levels, oracle has %d", len(got), len(want))
			}
			for l := range want {
				for v := range want[l] {
					if got[l][v] != want[l][v] {
						return fmt.Errorf("level %d vertex %d: %d, oracle %d", l, v, got[l][v], want[l][v])
					}
				}
			}
			return nil
		},
	})
}
