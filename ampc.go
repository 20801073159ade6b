// Package ampc is a simulator and algorithm library for the Adaptive
// Massively Parallel Computation (AMPC) model of Behnezhad, Dhulipala,
// Esfandiari, Łącki, Schudy and Mirrokni, "Massively Parallel Computation
// via Remote Memory Access" (SPAA 2019, arXiv:1905.07533).
//
// AMPC extends the MPC model with a per-round immutable distributed data
// store that machines may read adaptively — each query may depend on the
// results of earlier queries in the same round — subject to the usual O(S)
// per-machine communication budget. This package provides:
//
//   - the budget-enforced AMPC runtime (internal/ampc) over a sharded
//     key-value store with contention accounting (internal/dds);
//   - the paper's algorithms: 2-Cycle, maximal independent set,
//     connectivity, minimum spanning forest, forest and cycle connectivity,
//     list ranking, tree rooting with subtree/preorder properties, and
//     2-edge connectivity via BC-labeling (internal/core);
//   - the classic MPC baselines the paper compares against — pointer
//     doubling, Luby's MIS, Borůvka, label propagation (internal/mpc) —
//     run as MPC rounds simulated on the same runtime (§2);
//   - graph generators and exact reference oracles (internal/graph).
//
// This root package is the stable facade: it re-exports the graph types,
// generators, oracles and telemetry so applications depend on a single
// import.
//
// The Engine is the one way to run a registered algorithm: a configured,
// reusable handle whose Run method executes any registered algorithm by
// name with context cancellation, per-job option overrides, streaming
// per-round telemetry, and optional oracle verification:
//
//	eng := ampc.NewEngine(ampc.EngineOptions{Defaults: ampc.Options{Seed: 1}})
//	res, err := eng.Run(ctx, ampc.Job{Algo: "connectivity", Graph: g, Check: true})
//	comps := res.Payload.(ampc.ConnectivityResult).Components
//
// Register and Algorithms expose the registry itself, so servers and CLI
// harnesses dispatch by name instead of switching over entry points. The
// two entry points whose inputs a Job does not carry — RootForest (a root
// per tree) and SubtreeAggregates (a rooted forest and per-vertex values) —
// are plain functions that take the context first.
//
// Every algorithm takes an Options value; the zero value picks ε = 0.5,
// seed 0 and sensible simulation defaults, and the same seed always
// reproduces the same run bit-for-bit.
package ampc

import (
	"context"

	"ampc/internal/core"
	"ampc/internal/graph"
	"ampc/internal/rng"
)

// Graph is an immutable undirected simple graph in CSR form.
type Graph = graph.Graph

// WeightedGraph is a Graph with distinct int64 edge weights.
type WeightedGraph = graph.WeightedGraph

// Edge is an undirected edge.
type Edge = graph.Edge

// WeightedEdge is an undirected weighted edge.
type WeightedEdge = graph.WeightedEdge

// EdgeStream is a replayable streamed edge producer, the out-of-core input
// form for algorithms that accept Job.Stream.
type EdgeStream = graph.EdgeStream

// RNG is the deterministic random stream used by generators.
type RNG = rng.RNG

// NewRNG returns a deterministic random stream for the given seed and
// stream index.
func NewRNG(seed, stream uint64) *RNG { return rng.New(seed, stream) }

// Graph constructors and generators.
var (
	// NewGraph builds a graph from an edge list, rejecting self-loops and
	// duplicates.
	NewGraph = graph.NewGraph
	// NewWeightedGraph builds a weighted graph with distinct weights.
	NewWeightedGraph = graph.NewWeightedGraph
	// Cycle, TwoCycles, TwoCycleInstance, Path, Star, Clique, Grid,
	// RandomTree, RandomForest, Caterpillar, GNM, ConnectedGNM,
	// WithRandomWeights, Union and Relabel generate synthetic workloads.
	Cycle            = graph.Cycle
	TwoCycles        = graph.TwoCycles
	TwoCycleInstance = graph.TwoCycleInstance
	Path             = graph.Path
	Star             = graph.Star
	Clique           = graph.Clique
	Grid             = graph.Grid
	RandomTree       = graph.RandomTree
	RandomForest     = graph.RandomForest
	Caterpillar      = graph.Caterpillar
	GNM              = graph.GNM
	ConnectedGNM     = graph.ConnectedGNM
	// ChungLu, PowerLaw and SkewedDegree generate heavy-tailed and
	// hub-concentrated workloads; HubCount is the hub-set size the "skew"
	// workload kind derives from n.
	ChungLu           = graph.ChungLu
	PowerLaw          = graph.PowerLaw
	SkewedDegree      = graph.SkewedDegree
	HubCount          = graph.HubCount
	WithRandomWeights = graph.WithRandomWeights
	Union             = graph.Union
	Relabel           = graph.Relabel
	// StreamGNM streams a uniform multigraph without materializing it (the
	// "mgnm" workload kind); StreamOf adapts a materialized graph to the
	// stream interface.
	StreamGNM = graph.StreamGNM
	StreamOf  = graph.StreamOf
)

// Edge-list text serialization ("n <count>" line, then "u v [w]" lines).
var (
	// ReadEdgeList and WriteEdgeList move unweighted graphs to and from
	// the standard edge-list interchange format.
	ReadEdgeList  = graph.ReadEdgeList
	WriteEdgeList = graph.WriteEdgeList
	// ReadWeightedEdgeList and WriteWeightedEdgeList do the same for
	// weighted graphs.
	ReadWeightedEdgeList  = graph.ReadWeightedEdgeList
	WriteWeightedEdgeList = graph.WriteWeightedEdgeList
)

// Exact sequential oracles, useful for verification in applications.
var (
	// Components returns the BFS connectivity labeling.
	Components = graph.Components
	// KruskalMSF returns the unique minimum spanning forest.
	KruskalMSF = graph.KruskalMSF
	// BridgesOracle returns the bridges via Tarjan's algorithm.
	BridgesOracle = graph.Bridges
	// ArticulationPointsOracle returns the cut vertices.
	ArticulationPointsOracle = graph.ArticulationPoints
	// IsMIS reports whether a membership vector is a maximal independent set.
	IsMIS = graph.IsMIS
	// SameLabeling reports whether two labelings induce the same partition.
	SameLabeling = graph.SameLabeling
)

// Options configures an AMPC run: space exponent ε, seed, and simulation
// knobs. The zero value uses the documented defaults.
type Options = core.Options

// Store backend names for Options.Backend: BackendMem keeps each round's
// frozen store in process, BackendFile does too and writes a durable copy
// of each behind the next round to a segment file (see Options.StoreDir),
// and BackendRPC ships it to shardd servers (see Options.Servers and
// Options.Replication). Outputs are byte-identical for every backend.
const (
	BackendMem  = core.BackendMem
	BackendFile = core.BackendFile
	BackendRPC  = core.BackendRPC
)

// ErrInvalidOptions is wrapped by every error an algorithm returns for an
// Options value violating its documented contract; test with
// errors.Is(err, ampc.ErrInvalidOptions).
var ErrInvalidOptions = core.ErrInvalidOptions

// Telemetry reports a run's measured cost: rounds, phases, query totals,
// per-machine maxima and DDS shard load — the quantities the paper's
// lemmas bound.
type Telemetry = core.Telemetry

// Result types of the AMPC algorithms.
type (
	TwoCycleResult           = core.TwoCycleResult
	MISResult                = core.MISResult
	ConnectivityResult       = core.ConnectivityResult
	MSFResult                = core.MSFResult
	CycleConnectivityResult  = core.CycleConnectivityResult
	ForestConnectivityResult = core.ForestConnectivityResult
	ListRankingResult        = core.ListRankingResult
	RootedForest             = core.RootedForest
	TreeProps                = core.TreeProps
	BiconnResult             = core.BiconnResult
	MatchingResult           = core.MatchingResult
	ColoringResult           = core.ColoringResult
	AffinityResult           = core.AffinityResult
)

// RootForest roots forest trees via Euler tours and list ranking (§8.1,
// Theorem 7). It is not registry-dispatched: it needs a per-tree root set.
func RootForest(ctx context.Context, g *Graph, roots []int, opts Options) (*RootedForest, error) {
	return core.RootForest(ctx, g, roots, opts)
}

// ComputeTreeProps derives subtree sizes and preorder numbers
// (Lemmas 8.7, 8.8).
var ComputeTreeProps = core.ComputeTreeProps

// SubtreeAggregates computes per-vertex subtree min/max via a DDS-resident
// RMQ (Lemma 8.9).
func SubtreeAggregates(ctx context.Context, rf *RootedForest, values []int64, opts Options) (min, max []int64, tel Telemetry, err error) {
	return core.SubtreeAggregates(ctx, rf, values, opts)
}

// Matching and coloring oracles.
var (
	// GreedyMatchingOracle is the sequential greedy matching.
	GreedyMatchingOracle = graph.GreedyMatching
	// IsMaximalMatching verifies a matching membership vector.
	IsMaximalMatching = graph.IsMaximalMatching
	// GreedyColoringOracle is the sequential greedy coloring.
	GreedyColoringOracle = graph.GreedyColoring
	// IsProperColoring verifies a coloring.
	IsProperColoring = graph.IsProperColoring
)
