// Package core implements the AMPC graph algorithms of Behnezhad et al.
// (SPAA 2019): the 2-Cycle algorithm (§4), maximal independent set (§5),
// connectivity (§6), minimum spanning forest (§7), forest and cycle
// connectivity with list ranking and tree primitives (§8), and 2-edge
// connectivity via BC-labeling (§9).
//
// Every algorithm runs on the ampc.Runtime: all adaptive reads — the parts
// of the algorithms the paper highlights as relying on AMPC features — go
// through budget-enforced DDS queries, and the returned Telemetry reports
// the measured rounds, query totals, and load maxima that the paper's
// lemmas bound. Steps the paper marks as implementable with standard MPC
// primitives (sorting, duplicate removal, contraction bookkeeping) run on
// the driver and are accounted as O(1) rounds per phase, exactly as the
// paper counts them.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ampc/internal/ampc"
	"ampc/internal/dds"
	"ampc/internal/rng"
	"ampc/internal/rpc"
)

// ErrInvalidOptions reports an Options value that violates its documented
// contract. Every error returned by validation wraps it, so callers — the
// root facade's Engine in particular — can test with
// errors.Is(err, ErrInvalidOptions).
var ErrInvalidOptions = errors.New("core: invalid options")

// Options configures an AMPC algorithm run.
type Options struct {
	// Epsilon is the space exponent: machines have S = n^Epsilon space.
	// Must lie in (0, 1). Zero selects DefaultEpsilon.
	Epsilon float64
	// Seed makes the run deterministic.
	Seed uint64
	// Workers is the number of long-lived OS worker goroutines the P
	// virtual machines are striped over each round (see
	// ampc.Config.Workers). Zero selects GOMAXPROCS. Outputs are identical
	// for every Workers value; vary it only for performance.
	Workers int
	// FaultProb injects machine failures each round with the given
	// probability (see ampc.Config.FaultProb). Outputs must not change.
	// Must lie in [0, 1).
	FaultProb float64
	// Backend selects where each round's frozen store lives while the next
	// round reads it: BackendMem (or empty) keeps it in process, BackendFile
	// publishes it write-behind to one mmap'd segment file per store (see
	// StoreDir). Outputs are byte-identical for every backend.
	Backend string
	// StoreDir is the directory the file backend writes store segments
	// under. Empty selects a temporary directory removed when the run
	// finishes; in a caller-supplied directory each run claims a unique
	// run-* subdirectory (concurrent runs never collide) and leaves its
	// final store's segment file there. Ignored by the in-memory backend.
	StoreDir string
	// Residency selects the file backend's memory policy for retired
	// stores: ResidencyRetain (or empty) keeps each generation's in-memory
	// store as the read path and uses the segment files as durability
	// only, while ResidencyDrop frees the retiring generation's memory as
	// soon as its segment is durable and serves the next round's reads
	// from the mmap'd file — resident memory stays O(one generation), the
	// out-of-core mode. Outputs are byte-identical either way. Only the
	// file backend accepts a non-empty value.
	Residency string
	// Servers lists the shard server addresses ("host:port") the rpc
	// backend publishes stores to and reads them back from. Required when
	// Backend is BackendRPC; ignored otherwise.
	Servers []string
	// Replication is the rpc backend's replication factor R: every shard is
	// written to its primary server and the R-1 successors, and reads fail
	// over across them. Zero selects 1; must not exceed len(Servers).
	Replication int
	// RPCTimeout bounds each rpc request round trip (dial included), so one
	// dead or slow server degrades latency instead of stalling a round.
	// Zero selects the backend default (2s).
	RPCTimeout time.Duration
	// RPCDownCooldown is how long the rpc backend keeps a server marked
	// down after a transport failure before probing it again. Zero selects
	// the backend default (250ms). Chaos scenarios tune it to trade
	// recovery latency against probe storms on a flapping server.
	RPCDownCooldown time.Duration
	// Observer, when non-nil, receives every AMPC round's statistics as
	// soon as the round completes, letting callers stream telemetry while
	// a run is still in flight. It is invoked synchronously from the
	// algorithm's goroutine and must not retain the RoundStats slice
	// internals across calls.
	Observer func(ampc.RoundStats)
	// RetainStore keeps the run's final frozen store alive after the
	// runtime shuts down, exposed on the result (ConnectivityResult.Store,
	// MSFResult.Store, ListRankingResult.Store) for warm point queries
	// through the typed query surfaces (ConnectivityQuery, MSFQuery,
	// ListRankQuery). Algorithms that support retention run one extra
	// serve-publish round so the retained store holds exactly the
	// per-element labels under one known tag; the caller owns the store's
	// Close. Supported on the mem and file backends; the rpc backend's
	// reads die with the run's connection pools, so RetainStore with
	// BackendRPC is rejected by validation.
	RetainStore bool

	// budgetFactor is the runtime's per-machine budget constant; zero
	// selects ampc.DefaultBudgetFactor. The §5 query processes (MIS,
	// matching, coloring) raise it to afford a high-degree visit.
	budgetFactor int
	// spaceFactor scales the total space T = factor * (n + m); withDefaults
	// sets defaultSpaceFactor. The paper allows T = O(N polylog N):
	// connectivity and MSF read their exploration budgets from it, and
	// biconnectivity's sparse-table stage scales it by log n.
	spaceFactor int
}

// Store backend names accepted by Options.Backend.
const (
	// BackendMem keeps each round's frozen store in process (the default).
	BackendMem = "mem"
	// BackendFile serializes each round's frozen store to a segment file,
	// write-behind, and reads it back through mmap.
	BackendFile = "file"
	// BackendRPC publishes each round's frozen store to a fleet of shard
	// servers (cmd/shardd) over TCP and serves the next round's adaptive
	// reads from them — the actually-distributed backend. Requires
	// Options.Servers.
	BackendRPC = "rpc"
)

// Residency policies accepted by Options.Residency (file backend only).
const (
	// ResidencyRetain keeps retired stores in memory (the default).
	ResidencyRetain = "retain"
	// ResidencyDrop frees each retired store once its segment is durable
	// and reads the previous generation through mmap instead.
	ResidencyDrop = "drop"
)

// Defaults for Options fields.
const (
	DefaultEpsilon     = 0.5
	defaultSpaceFactor = 2
	// maxP caps the simulated machine count so tiny-S runs do not spawn
	// millions of goroutines. Capping P only makes per-machine load
	// larger, so enforced budgets stay meaningful.
	maxP = 512
	// minS keeps small test instances from degenerating to S of a few
	// words, where the model's asymptotic assumptions are meaningless.
	minS = 64
)

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.spaceFactor == 0 {
		o.spaceFactor = defaultSpaceFactor
	}
	return o
}

// validate enforces the documented contracts, coherently with withDefaults:
// for every defaultable knob the zero value means "select the default" and
// is accepted, while values outside the documented range — Epsilon outside
// (0,1), negative counts, FaultProb outside [0,1) — are rejected with an
// error wrapping ErrInvalidOptions. It therefore gives the same verdict whether called
// before or after withDefaults.
func (o Options) validate() error {
	if o.Epsilon != 0 && (o.Epsilon <= 0 || o.Epsilon >= 1) {
		return fmt.Errorf("%w: Epsilon must lie in (0,1) (0 selects the default %v), got %v",
			ErrInvalidOptions, DefaultEpsilon, o.Epsilon)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers must be non-negative, got %d", ErrInvalidOptions, o.Workers)
	}
	if o.FaultProb < 0 || o.FaultProb >= 1 {
		return fmt.Errorf("%w: FaultProb must lie in [0,1), got %v", ErrInvalidOptions, o.FaultProb)
	}
	switch o.Backend {
	case "", BackendMem, BackendFile:
	case BackendRPC:
		if len(o.Servers) == 0 {
			return fmt.Errorf("%w: Backend %q requires at least one entry in Servers", ErrInvalidOptions, BackendRPC)
		}
		if o.RetainStore {
			return fmt.Errorf("%w: RetainStore is not supported with Backend %q (a retained store must outlive the run's connection pools)",
				ErrInvalidOptions, BackendRPC)
		}
		if o.Replication > len(o.Servers) {
			return fmt.Errorf("%w: Replication %d exceeds the %d configured servers",
				ErrInvalidOptions, o.Replication, len(o.Servers))
		}
	default:
		return fmt.Errorf("%w: Backend must be %q, %q or %q (empty selects %q), got %q",
			ErrInvalidOptions, BackendMem, BackendFile, BackendRPC, BackendMem, o.Backend)
	}
	switch o.Residency {
	case "":
	case ResidencyRetain, ResidencyDrop:
		if o.Backend != BackendFile {
			return fmt.Errorf("%w: Residency %q requires Backend %q (only file-backed stores have a disk copy to fall back on)",
				ErrInvalidOptions, o.Residency, BackendFile)
		}
	default:
		return fmt.Errorf("%w: Residency must be %q or %q (empty selects %q), got %q",
			ErrInvalidOptions, ResidencyRetain, ResidencyDrop, ResidencyRetain, o.Residency)
	}
	if o.Replication < 0 {
		return fmt.Errorf("%w: Replication must be non-negative, got %d", ErrInvalidOptions, o.Replication)
	}
	if o.RPCTimeout < 0 {
		return fmt.Errorf("%w: RPCTimeout must be non-negative, got %v", ErrInvalidOptions, o.RPCTimeout)
	}
	if o.RPCDownCooldown < 0 {
		return fmt.Errorf("%w: RPCDownCooldown must be non-negative, got %v", ErrInvalidOptions, o.RPCDownCooldown)
	}
	return nil
}

// params derives the cluster shape from the instance size: space per
// machine S = max(n^ε, minS) and machine count P = ceil(T/S) with
// T = factor·(n+m), capped at maxP.
func (o Options) params(n, m int) (p, s int) {
	s = int(math.Ceil(math.Pow(float64(n), o.Epsilon)))
	if s < minS {
		s = minS
	}
	total := o.spaceFactor * (n + m + 1)
	p = (total + s - 1) / s
	if p < 1 {
		p = 1
	}
	if p > maxP {
		p = maxP
	}
	return p, s
}

// newRuntime builds the AMPC runtime for an instance with n vertices and m
// edges under the given options. When the machine count is capped at maxP
// (a simulation limit, not a model limit), each simulated machine stands in
// for ceil(P_uncapped/P) model machines, so the per-machine budget scales
// by the same factor to keep enforcement meaningful rather than spuriously
// tight.
func (o Options) newRuntime(ctx context.Context, n, m int) *ampc.Runtime {
	p, s := o.params(n, m)
	bf := o.budgetFactor
	if bf <= 0 {
		bf = ampc.DefaultBudgetFactor
	}
	total := o.spaceFactor * (n + m + 1)
	if uncapped := (total + s - 1) / s; uncapped > p {
		bf *= (uncapped + p - 1) / p
	}
	var pub dds.Publisher
	switch o.Backend {
	case BackendFile:
		fp := dds.NewFilePublisher(o.StoreDir)
		if o.Residency == ResidencyDrop {
			// Must precede ampc.New: the runtime latches the backend's
			// barrier-before-execute capability once, at construction.
			fp.SetDropRetired(true)
		}
		if ctx != nil {
			// A cancelled run must also kill its in-flight write-behind
			// publish, so no half-written segment outlives the abort.
			fp.SetContext(ctx)
		}
		pub = fp
	case BackendRPC:
		rp := rpc.NewPublisher(rpc.Config{
			Servers:      o.Servers,
			Replication:  o.Replication,
			Timeout:      o.RPCTimeout,
			DownCooldown: o.RPCDownCooldown,
		})
		if ctx != nil {
			rp.SetContext(ctx)
		}
		pub = rp
	}
	rt := ampc.New(ampc.Config{
		P:                p,
		S:                s,
		BudgetFactor:     bf,
		Workers:          o.Workers,
		Seed:             o.Seed,
		FaultProb:        o.FaultProb,
		Backend:          pub,
		Observer:         o.Observer,
		RetainFinalStore: o.RetainStore,
	})
	if ctx != nil {
		rt.SetContext(ctx)
	}
	return rt
}

// Telemetry reports the measured cost of a run in the quantities the paper
// bounds: rounds, total queries (Proposition 5.1, Lemma 6.1), maximum
// per-machine queries (Lemma 4.3, Lemma 8.4), and maximum DDS shard load
// (Lemma 2.1).
type Telemetry struct {
	// Rounds is the number of AMPC rounds executed, including data
	// publication rounds.
	Rounds int
	// Phases counts the algorithm's outer iterations (shrink iterations,
	// connectivity/MSF phases, MIS settle iterations).
	Phases int
	// TotalQueries is the number of DDS queries over all rounds.
	TotalQueries int64
	// TotalWrites is the number of pairs written to the DDS over all
	// rounds — the volume the write-time sharding pipeline routes.
	TotalWrites int64
	// MaxMachineQueries is the largest per-machine, per-round query count.
	MaxMachineQueries int
	// MaxShardLoad is the largest per-round, per-shard query count.
	MaxShardLoad int64
	// P and S echo the simulated cluster shape.
	P, S int
	// ExecuteTime is the wall-clock time spent executing round functions
	// (machines running, including their DDS reads), summed over rounds.
	ExecuteTime time.Duration
	// FreezeTime is the wall-clock time spent freezing writes into the next
	// round's store, summed over rounds. FreezeMergeTime and
	// FreezeBuildTime split it between merging the machines' pre-hashed
	// writes into per-shard regions and building the per-shard indexes, so
	// a freeze delta in a perf trajectory is attributable to data movement
	// versus index construction.
	FreezeTime      time.Duration
	FreezeMergeTime time.Duration
	FreezeBuildTime time.Duration
	// PublishTime is the wall-clock time spent synchronously publishing
	// frozen stores (joining write-behind serialization and installing the
	// backend), summed over rounds. Zero for the in-memory backend.
	PublishTime time.Duration
	// DriverTime is the wall-clock time the run spent on the driver itself,
	// between rounds: the runtime's lifetime up to this report minus every
	// round's execute, freeze and publish time. For the contraction
	// algorithms (connectivity, MSF, affinity) DriverContractTime,
	// DriverReadbackTime and DriverIngestTime split out its three named
	// sub-phases — applying a phase's contraction map and rebuilding Gc,
	// the master's read-back of the records a round wrote, and turning the
	// input into the first Gc or streaming it into D0 — so a driver delta
	// in a perf trajectory is attributable; the remainder is sampling,
	// shuffling and result assembly.
	DriverTime         time.Duration
	DriverContractTime time.Duration
	DriverReadbackTime time.Duration
	DriverIngestTime   time.Duration
	// CacheHits is always zero: the runtime keeps no read cache shared
	// between machines, so no charged read is answered without a store
	// probe. It stays only while the benchmark still reads it.
	CacheHits int64
	// CacheMisses sums the per-round point reads that reached a store
	// (RoundStats.CacheMisses): every charged Read, ReadMany and
	// ReadStatic key.
	CacheMisses int64
	// RPCFrames sums the read-path request frames the rpc backend sent
	// during execute phases; zero for in-process backends. With a remote
	// round's machines reading at once into shared frames, plus the
	// backend's single-flight, this runs far below TotalQueries.
	RPCFrames int64
	// RoundStats is the per-round breakdown.
	RoundStats []ampc.RoundStats
}

func telemetryFrom(rt *ampc.Runtime, phases int) Telemetry {
	t := Telemetry{
		Rounds:            rt.Rounds(),
		Phases:            phases,
		TotalQueries:      rt.TotalQueries(),
		MaxMachineQueries: rt.MaxMachineQueries(),
		MaxShardLoad:      rt.MaxShardLoad(),
		P:                 rt.Config().P,
		S:                 rt.Config().S,
		RoundStats:        rt.Stats(),
	}
	for _, st := range t.RoundStats {
		t.TotalWrites += st.Writes
		t.ExecuteTime += st.Execute
		t.FreezeTime += st.Freeze
		t.FreezeMergeTime += st.FreezeMerge
		t.FreezeBuildTime += st.FreezeBuild
		t.PublishTime += st.Publish
		t.CacheMisses += st.CacheMisses
		t.RPCFrames += st.RPCFrames
	}
	t.DriverTime = rt.Elapsed() - t.ExecuteTime - t.FreezeTime - t.PublishTime
	return t
}

// driverRNG returns the deterministic random stream used for driver-side
// choices (permutations, sampling probabilities) of an algorithm run.
func (o Options) driverRNG(stream uint64) *rng.RNG {
	return rng.New(o.Seed, 0xD0+stream)
}

// orBackground normalizes a nil context so entry points can check ctx.Err()
// in their driver loops without guarding; passing nil means "never cancel".
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
