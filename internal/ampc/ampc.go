// Package ampc implements the Adaptive Massively Parallel Computation
// runtime of Behnezhad et al. (SPAA 2019).
//
// A Runtime owns a sequence of immutable distributed data stores
// D0, D1, D2, ... (package dds). A computation proceeds in rounds: in round
// i the caller supplies a round function which the runtime executes on P
// virtual machines, striped over a pool of long-lived worker goroutines (one
// per machine when the store is remote). Every machine receives a Ctx whose
// Read* methods query D_{i-1} and whose Write method appends to D_i. The
// defining feature of the model — adaptivity — falls out naturally: Read is
// an ordinary blocking call, so a machine's later queries may depend on the
// results of its earlier ones within the same round.
//
// The runtime enforces the model's resource constraints rather than merely
// observing them: each machine may issue at most Budget() queries and
// Budget() writes per round, where Budget() = BudgetFactor * S and S is the
// per-machine space. Exceeding the budget aborts the round with ErrBudget.
// Per-machine read results are cached, so repeated queries for the same key
// count once (assumption 4 of the paper's §2.1 contention analysis).
//
// The paper's parallel-slackness discussion (§2.1) justifies running many
// virtual machines per physical core; the worker pool is that multiplexing,
// with the Go scheduler providing the latency hiding the paper describes.
package ampc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ampc/internal/dds"
	"ampc/internal/rng"
)

// ErrBudget is reported when a machine exceeds its per-round communication
// budget. Algorithms that honour the model's O(S) bound never see it.
var ErrBudget = errors.New("ampc: per-machine communication budget exceeded")

// Config describes the simulated cluster.
type Config struct {
	// P is the number of virtual machines executing each round. It is also
	// the DDS shard count, the paper's assumption that the DDS is handled
	// by P machines.
	P int
	// S is the space per machine in words; the per-round communication
	// budget is BudgetFactor * S queries and as many writes.
	S int
	// BudgetFactor is the constant hidden in the model's O(S) communication
	// bound. Zero means DefaultBudgetFactor.
	BudgetFactor int
	// Workers is the number of lanes — long-lived worker goroutines — the
	// P virtual machines are striped over each round, and the width of the
	// freeze. Zero means GOMAXPROCS. The paper's parallel-slackness argument
	// (§2.1) runs many virtual machines per physical processor; the lanes
	// are that multiplexing, and the worker count never affects any output
	// — machine randomness and write merge order depend only on (Seed,
	// round, machine). A remote round — one whose store reports read frames
	// — runs P lanes instead, one machine each, so their reads can share
	// frames.
	Workers int
	// Seed makes the whole computation deterministic.
	Seed uint64
	// FaultProb injects failures: before each round, every machine is
	// independently scheduled to fail (lose its writes and restart) with
	// this probability. The model's fault-tolerance argument (§2.1) says
	// this must never change any output; the failure schedule is a
	// deterministic function of the seed, so runs stay reproducible.
	FaultProb float64
	// Backend publishes each round's frozen store as the StoreBackend the
	// next round reads: nil (or dds.MemPublisher) keeps stores in process,
	// dds.NewFilePublisher keeps them in process too and writes each to a
	// segment file behind the round that reads it — store i's serialization
	// overlaps round i+1's execute phase, and Round joins it before the next
	// freeze. Outputs are byte-identical for every backend; only the
	// physical home of D_{i-1} changes.
	Backend dds.Publisher
	// Observer, when non-nil, receives every round's statistics as soon as
	// the round completes, before the next round starts. It is called
	// synchronously from the driver goroutine; slow observers slow the run.
	Observer func(RoundStats)
	// RetainFinalStore keeps the last published store alive across Close:
	// instead of releasing it, shutdown detaches it and FinalStore hands it
	// to the caller, who owns its Close from then on. This is what lets a
	// serving daemon keep a run's final frozen store resident and answer
	// point queries at memory speed long after the runtime is gone. The
	// detached store must be self-contained once the publisher closes: the
	// mem and file backends' in-memory store always is, but an rpc
	// backend's reads die with the publisher's connection pools — callers
	// gate on that.
	RetainFinalStore bool
}

// DefaultBudgetFactor is the default constant multiplier on S for the
// per-machine query and write budgets. The paper's algorithms need small
// constants (e.g. the 2-Cycle analysis uses (1+c)E[Z] with E[Z] = n^ε).
const DefaultBudgetFactor = 8

// RoundStats records the accounting for one executed round.
type RoundStats struct {
	// Name labels the round for reports (e.g. "shrink-iter-3").
	Name string
	// Queries is the total number of DDS queries issued by all machines:
	// each machine's distinct keys, its repeats being free.
	Queries int64
	// Writes is the total number of pairs written to the next store.
	Writes int64
	// MaxMachineQueries is the largest per-machine query count, the
	// quantity bounded by O(S) in the model.
	MaxMachineQueries int
	// MaxMachineWrites is the largest per-machine write count.
	MaxMachineWrites int
	// MaxMachineReadCalls is the largest per-machine count of read calls
	// (every Read, ReadStatic and ReadMany-style batch is one; ReadAll is
	// two, its count and its range, or one for an absent key): an upper
	// bound on the round's chain of dependent reads, its adaptive depth.
	MaxMachineReadCalls int
	// MaxShardLoad is the largest number of queries answered by one DDS
	// shard this round, the quantity bounded by Lemma 2.1. A shard of the
	// current store and the same-index shard of the static store are one
	// DDS machine, so its load counts both.
	MaxShardLoad int64
	// Pairs is the number of key-value pairs in the store produced by the
	// round.
	Pairs int
	// Execute is the wall-clock time of the execute phase: all machines
	// running the round function, including their DDS reads.
	Execute time.Duration
	// Freeze is the wall-clock time of the freeze phase: merging the
	// machines' writes into the next round's immutable store.
	Freeze time.Duration
	// FreezeMerge and FreezeBuild split Freeze between its two phases: the
	// sizing pass (per-shard pair counts off the writers' stored shard ids,
	// and the slot-table grab) and the insert tasks that place every pair
	// in its shard's table. The split lets perf trajectories attribute a
	// freeze delta to layout versus insertion.
	FreezeMerge time.Duration
	FreezeBuild time.Duration
	// FreshTableBytes and FreshSlabBytes are the slot-table and overflow-
	// slab bytes the freeze allocated because the runtime's arena held no
	// retired one with room for them. After the first round they stay zero
	// unless a shard needs a larger table or slab than the retired
	// generation has.
	FreshTableBytes int64
	FreshSlabBytes  int64
	// Publish is the wall-clock time this round spent synchronously on
	// store publication: joining the previous round's write-behind publish
	// and retiring its store before freezing, plus handing the frozen store
	// to the publisher. With write-behind the serialization itself overlaps
	// the next round's execute phase and never appears here.
	Publish time.Duration
	// CacheMisses counts point reads (Read, ReadMany, ReadStatic and
	// ReadStaticMany) that reached a store this round: every charged point
	// read, since the per-machine memo serves only free repeats. ReadAll's
	// count and range probes are not point reads and do not count.
	CacheMisses int64
	// RPCFrames counts read-path request frames the networked backend sent
	// during this round's execute phase, retries included; zero for
	// in-process backends.
	RPCFrames int64
}

// Runtime executes AMPC rounds over a chain of stores.
type Runtime struct {
	cfg   Config
	cur   dds.StoreBackend // D_{i-1} for the next round
	round int
	stats []RoundStats
	seedR *rng.RNG

	// Store publication: every frozen store goes through pub, which decides
	// where the frozen shards live (in process, on shard servers). pubSeq
	// numbers published stores across SetInput and rounds; pubErr latches a
	// publish failure until the next Round call reports it.
	pub    dds.Publisher
	pubSeq int
	pubErr error

	// created is when New returned the runtime: Elapsed measures from it.
	created time.Time

	// Execution engine: a pool of long-lived workers, a builder reused
	// across rounds, one persistent Ctx per worker lane whose tables keep
	// their capacity between machines and rounds, and per-machine stat
	// slices owned by the runtime. nextSalt is the placement salt of the
	// next store to be built — drawn before the round executes, so writers
	// pre-hash their pairs for it.
	workers  int
	pool     *workerPool
	builder  *dds.Builder
	arena    *dds.Arena
	nextSalt uint64
	ctxs     []*Ctx // lanes 0..workers-1's Ctxs, persistent across rounds
	errs     []error
	queries  []int
	calls    []int
	writes   []int

	// Capabilities of the current read backend, asserted once per publish
	// instead of once per machine reset (type assertions on every reset
	// showed up in the round-overhead benchmark): the pre-hashed point-read
	// surface and the placement salt it needs.
	curPre  dds.PrehashedGetter
	curSalt uint64
	// curFrames exposes the networked backend's read-frame counter, for
	// the per-round RPCFrames delta and the lane count; nil for in-process
	// backends.
	curFrames interface{ ReadFrames() int64 }
	// misses accumulates the lanes' store-read counters each round.
	misses atomic.Int64

	// Static side store; see static.go.
	static     *dds.Store
	staticSalt uint64

	// input sums the freezes of SetInput and SetInputStream, which run
	// outside every round and so appear in no RoundStats.
	input dds.FreezeStats

	// failNext maps machine id -> number of times the machine should fail
	// (have its writes dropped and be re-executed) in the next round.
	failNext map[int]int
	// faultR drives Config.FaultProb's background failure injection.
	faultR *rng.RNG

	// ctx, when non-nil, aborts the computation between rounds: Round
	// returns ctx.Err() without executing once the context is done.
	ctx context.Context

	// preBarrier: the publisher asked for its barrier before the execute
	// phase (BarrierBeforeExecute). A networked publisher needs D_{i-1}
	// resident on its shard servers before round i's adaptive reads start —
	// joining after execute would leave every read on the retained
	// in-memory copy and the model's remote cost unpaid.
	preBarrier bool

	// closed makes shutdown idempotent: drivers that retain the final store
	// Close explicitly mid-function while a deferred Close still runs.
	// final is the store detached by shutdown under Config.RetainFinalStore.
	closed bool
	final  dds.StoreBackend
}

// New creates a runtime with an empty initial store D0. Call SetInput (or
// run a round that writes) to populate it.
func New(cfg Config) *Runtime {
	if cfg.P <= 0 {
		panic("ampc: Config.P must be positive")
	}
	if cfg.S <= 0 {
		panic("ampc: Config.S must be positive")
	}
	if cfg.BudgetFactor <= 0 {
		cfg.BudgetFactor = DefaultBudgetFactor
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Backend == nil {
		cfg.Backend = dds.MemPublisher{}
	}
	r := &Runtime{cfg: cfg, seedR: rng.New(cfg.Seed, 0xA3), created: time.Now()}
	r.workers = cfg.Workers
	if r.workers > cfg.P {
		r.workers = cfg.P
	}
	r.pub = cfg.Backend
	if bb, ok := cfg.Backend.(interface{ BarrierBeforeExecute() bool }); ok {
		r.preBarrier = bb.BarrierBeforeExecute()
	}
	r.builder = dds.NewBuilder(cfg.P)
	// The pool starts eagerly: the pinned-freeze scheduler below must
	// capture the pool — and only the pool — so that the builder never
	// holds a reference back to the Runtime (a cycle through an object with
	// a finalizer would defeat collection).
	r.pool = newWorkerPool(r.workers)
	// Store recycling: D_{i-1} retires once round i's machines are done, and
	// its slot arrays and slabs go through the arena into D_i's freeze. A
	// publisher that swaps reads off the frozen store asynchronously (the rpc
	// publisher) gets the same arena, so a store it retires is recycled too.
	r.arena = dds.NewArena()
	if ap, ok := cfg.Backend.(interface{ SetArena(*dds.Arena) }); ok {
		ap.SetArena(r.arena)
	}
	// Stable shard ownership: freeze insert task k runs on pool worker k and
	// owns the shards i with i mod tasks == k, so a shard's arrays stay hot
	// in the same worker's cache every round. The pool is idle during the freeze —
	// it runs from the driver between rounds — so the pinned queues never
	// contend with machine execution.
	pool := r.pool
	r.builder.SetParallel(func(n int, f func(int)) { pool.runStriped(n, f) })
	r.ctxs = make([]*Ctx, r.workers)
	for w := range r.ctxs {
		r.ctxs[w] = &Ctx{}
	}
	r.errs = make([]error, cfg.P)
	r.queries = make([]int, cfg.P)
	r.calls = make([]int, cfg.P)
	r.writes = make([]int, cfg.P)
	// The initial empty D0 stays in memory whatever the backend: publishing
	// a placeholder through a file publisher would write and immediately
	// retire a whole segment before SetInput installs real data.
	// The salt is still drawn here so the seed stream is backend-invariant.
	r.cur = dds.NewStore(nil, cfg.P, r.seedR.Uint64())
	r.bindBackend()
	r.staticSalt = r.seedR.Uint64()
	// The next store's salt is drawn up front (and re-drawn after every
	// publish): writers pre-hash each written pair with it, which is what
	// lets Freeze insert without hashing. The draw order matches the old
	// freeze-time draw exactly, so seeds produce the same salt sequence.
	r.nextSalt = r.seedR.Uint64()
	r.builder.Prime(cfg.P, r.nextSalt)
	if cfg.FaultProb > 0 {
		r.faultR = rng.New(cfg.Seed, 0xFA)
	}
	// The finalizer backstops callers that never Close: it releases the
	// worker pool, the current backend's mappings, and any publisher-owned
	// store directory once the Runtime is garbage.
	runtime.SetFinalizer(r, func(rt *Runtime) { rt.shutdown() })
	return r
}

// publish installs s as the current store through the backend publisher and
// retires the store it replaces, if a Round has not retired it already. A
// publish failure latches the error — it is reported by the next Round call
// — and keeps the in-memory store readable so driver-side reads do not crash
// before the error surfaces. Publishing also rotates nextSalt: the store
// just installed consumed its salt, so the salt of the store after it is
// drawn now, ahead of the writes that will pre-hash for it.
func (r *Runtime) publish(s *dds.Store) {
	nb, err := r.pub.Publish(r.pubSeq, s)
	r.pubSeq++
	if err != nil {
		r.pubErr = err
		nb = s
	}
	r.retire(nb)
	r.cur = nb
	r.bindBackend()
	r.nextSalt = r.seedR.Uint64()
}

// retire closes the current backend and recycles an in-process store's
// arrays into the next freeze, unless it is next, the backend taking its
// place: Round retires D_{i-1} once its machines are done, before D_i
// freezes, and publish retires the store SetInput replaces.
func (r *Runtime) retire(next dds.StoreBackend) {
	if r.cur == nil {
		return
	}
	r.cur.Close()
	if ms, ok := r.cur.(*dds.Store); ok && r.cur != next {
		r.arena.Recycle(ms)
	}
	r.cur = nil
}

// bindBackend re-asserts the current backend's optional capabilities, once
// per publish. ReadMany's store-batch wiring only engages on backends
// that report read frames — the networked ones, where one GetMany is what
// collapses a machine's read set into per-server request frames. On the
// in-process stores a batched read's dedup and result-routing bookkeeping
// costs more per key than the sequential shard sweep saves over the ~35ns
// scalar probe, so mem and file serve ReadMany through the pre-hashed
// scalar path instead.
func (r *Runtime) bindBackend() {
	r.curFrames, _ = r.cur.(interface{ ReadFrames() int64 })
	// The salt pins the backend's own placement hash, so a pre-hashed Get
	// can trust the caller's value.
	r.curSalt = r.cur.Salt()
	r.curPre, _ = r.cur.(dds.PrehashedGetter)
}

// shutdown releases everything the runtime owns; shared by Close and the
// finalizer. The publisher barrier joins any in-flight write-behind publish
// first, so the final store's segment is durable (or its cancellation is
// fully cleaned up) before the current backend and the publisher release
// what lives on disk. It returns the first failure: a latched publish
// error no Round surfaced, the barrier's, or a release error.
func (r *Runtime) shutdown() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.pool != nil {
		r.pool.close()
	}
	err := r.pubErr
	r.pubErr = nil
	if berr := r.pub.Barrier(); err == nil {
		err = berr
	}
	if r.cur != nil {
		if r.cfg.RetainFinalStore && err == nil {
			// Detach instead of releasing: the caller takes ownership via
			// FinalStore and closes it when the serving surface retires. On
			// a failed run nothing is detached — a store whose publish or
			// barrier failed is not fit to serve.
			r.final = r.cur
		} else if cerr := r.cur.Close(); err == nil {
			err = cerr
		}
		r.cur = nil
	}
	if perr := r.pub.Close(); err == nil {
		err = perr
	}
	return err
}

// FinalStore returns the last published store detached by Close under
// Config.RetainFinalStore, or nil before Close, after a failed shutdown, or
// when retention was never requested. The caller owns the returned backend
// and must Close it once done serving from it.
func (r *Runtime) FinalStore() dds.StoreBackend { return r.final }

// Close releases the runtime's worker pool, the current store backend and
// the store publisher, first joining
// any write-behind publish still in flight so the final store is durable.
// It returns the first publish or release failure — in particular a failed
// final-round write-behind publish, which no Round call was left to surface
// (synchronous publishing reported it from the producing Round). Close is
// optional — an abandoned Runtime is reclaimed by a finalizer — but
// deterministic for callers that create many runtimes. Rounds must not be
// executed, and stores previously returned by Store must not be read, after
// Close.
func (r *Runtime) Close() error {
	runtime.SetFinalizer(r, nil)
	return r.shutdown()
}

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// SetContext binds a cancellation context to the runtime. Rounds started
// after the context is done fail immediately with ctx.Err(), so a long
// computation aborts at the next round boundary — rounds themselves are
// budget-bounded and therefore short.
func (r *Runtime) SetContext(ctx context.Context) { r.ctx = ctx }

// Elapsed returns the wall-clock time since the runtime was created. A
// driver subtracts the rounds' execute, freeze and publish times from it to
// get the time it spent itself, between rounds — the share no per-round
// timer sees.
func (r *Runtime) Elapsed() time.Duration { return time.Since(r.created) }

// Budget returns the per-machine, per-round query (and write) budget.
func (r *Runtime) Budget() int { return r.cfg.BudgetFactor * r.cfg.S }

// SetInput installs the pairs as the current store (the input D0, "stored
// using a set of keys known to all machines"). It does not count as a round:
// its freeze is reported by InputFreeze. With a file backend, a publish
// failure here surfaces from the next Round.
func (r *Runtime) SetInput(pairs []dds.KV) {
	s, fz := dds.NewStoreArena(pairs, r.cfg.P, r.nextSalt, r.arena)
	r.addInputFreeze(fz)
	r.publish(s)
}

// SetInputStream installs D0 from a streaming producer instead of a
// materialized pair slice: fill receives the primed builder's writer
// accessor and emits records machine by machine, so no O(input) []dds.KV
// ever exists — the writers pre-hash and route each record as it arrives
// and the freeze below assembles shards from those buffers directly.
// Fetch each machine's writer exactly once: like Round-time machines, a
// refetch models a restarted machine and discards the earlier writes.
// Like SetInput this does not count as a round, and with a file backend a
// publish failure surfaces from the next Round.
func (r *Runtime) SetInputStream(fill func(writer func(machine int) *dds.Writer)) {
	r.builder.Prime(r.cfg.P, r.nextSalt)
	fill(r.builder.Writer)
	s := r.builder.FreezeArena(r.arena, r.cfg.P, r.nextSalt)
	r.addInputFreeze(r.builder.LastFreeze())
	r.publish(s)
}

func (r *Runtime) addInputFreeze(fz dds.FreezeStats) {
	r.input.Merge += fz.Merge
	r.input.Build += fz.Build
	r.input.FreshTableBytes += fz.FreshTableBytes
	r.input.FreshSlabBytes += fz.FreshSlabBytes
}

// InputFreeze returns the summed freezes of SetInput and SetInputStream:
// the bytes they allocated fresh, which no RoundStats reports, and their
// time, which a driver spends between rounds and counts as its own.
func (r *Runtime) InputFreeze() dds.FreezeStats { return r.input }

// Store returns the current store D_{i-1} (the output of the last round).
// Callers must treat it as read-only; driver-side reads through this method
// model the master machine and are not counted against any budget. The
// returned backend is only valid until it retires — in the next Round once
// its machines have run, or at SetInput or Close — so re-fetch it instead of
// retaining it. A Round that fails leaves it current.
func (r *Runtime) Store() dds.StoreBackend { return r.cur }

// Stats returns per-round accounting in execution order.
func (r *Runtime) Stats() []RoundStats { return r.stats }

// FailMachine schedules the given machine to fail (lose its writes and be
// restarted) the given number of times during the next executed round. The
// model's fault-tolerance argument (§2.1) says this must not change the
// round's output because D_{i-1} is immutable and machine randomness is a
// deterministic function of (seed, round, machine).
func (r *Runtime) FailMachine(machine, times int) {
	if r.failNext == nil {
		r.failNext = make(map[int]int)
	}
	r.failNext[machine] = times
}

// RoundFunc is the body of one round, executed once per machine. It must
// not retain ctx after returning.
type RoundFunc func(ctx *Ctx) error

// Round executes f on all P machines against the current store, freezes the
// writes into the next store, and advances the round counter. It returns
// the first machine error (budget violations or algorithm errors).
//
// The P virtual machines run in lanes on the runtime's worker pool: lane w
// runs machines w, w+lanes, w+2·lanes, ... to completion on one Ctx. There
// are Workers lanes, or P when the store reports read frames, so that every
// machine of a remote round reads at once and their reads meet in the
// backend's per-server frames instead of queueing behind Workers round
// trips. Lanes below Workers reuse the runtime's persistent Ctxs (their
// tables and RNG stay on one worker's cache lines across rounds); an extra
// lane's Ctx dies with the round. Machine outputs are independent of the
// schedule — writes merge in machine-id order and randomness is keyed by
// (seed, round, machine) — so any Workers value produces bit-identical
// stores.
func (r *Runtime) Round(name string, f RoundFunc) error { return r.run(name, f, false) }

// run executes one counted round. A static round (StaticRound) writes for the
// static store instead of D_i: its writers pre-hash under the static salt,
// its freeze builds the next static store on top of the current one, and
// the store it publishes as D_i is empty. The salt rotation is the same
// either way, so every later store's salt and placement are unchanged.
func (r *Runtime) run(name string, f RoundFunc, static bool) error {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}
	if err := r.pubErr; err != nil {
		r.pubErr = nil
		return fmt.Errorf("ampc: round %d (%s): store publish: %w", r.round, name, err)
	}
	// A publisher that asked for its barrier ahead of execute (a networked
	// backend) joins the previous round's publish here, so this round's
	// adaptive reads hit the store where it now lives. The join time counts
	// as publish cost: it is the synchronous tail of the previous publish.
	var preBarrier time.Duration
	if r.preBarrier {
		if r.pub.InFlight() {
			t := time.Now()
			if err := r.pub.Barrier(); err != nil {
				return fmt.Errorf("ampc: round %d (%s): store publish: %w", r.round, name, err)
			}
			preBarrier = time.Since(t)
		}
	}
	r.cur.ResetLoads()
	if r.static != nil {
		r.static.ResetLoads()
	}
	// Priming replaces the plain Reset: it empties every writer and arms
	// write-time pre-hashing for the next store's geometry, so this round's
	// writes carry their destination shard and the freeze below inserts
	// them in place with no hashing.
	salt := r.nextSalt
	if static {
		salt = r.staticSalt
	}
	r.builder.Prime(r.cfg.P, salt)
	fail := r.failNext
	r.failNext = nil
	if r.faultR != nil {
		for m := 0; m < r.cfg.P; m++ {
			if r.faultR.Bernoulli(r.cfg.FaultProb) {
				if fail == nil {
					fail = make(map[int]int)
				}
				fail[m]++
			}
		}
	}

	r.misses.Store(0)
	var framesBase int64
	lanes := r.workers
	if r.curFrames != nil {
		framesBase = r.curFrames.ReadFrames()
		lanes = r.cfg.P
	}
	r.pool.grow(lanes)
	execStart := time.Now()
	r.pool.runWorkers(lanes, func(w int) {
		var c *Ctx
		if w < len(r.ctxs) {
			c = r.ctxs[w]
		} else {
			c = new(Ctx)
		}
		c.bind(r)
		for m := w; m < r.cfg.P; m += lanes {
			r.runMachine(c, m, f, 1+fail[m])
		}
		c.finish(r)
	})
	execTime := time.Since(execStart)

	// A remote read that survives replica failover with no answer cannot be
	// reported through the error-less StoreBackend surface; the backend
	// latches it and the round fails here, before machine errors — a machine
	// that misbehaved because its reads silently came back absent is a
	// symptom, not the cause.
	if err := r.cur.ReadErr(); err != nil {
		return fmt.Errorf("ampc: round %d (%s): store read: %w", r.round, name, err)
	}

	for m, err := range r.errs {
		if err != nil {
			return fmt.Errorf("ampc: round %d (%s) machine %d: %w", r.round, name, m, err)
		}
	}

	st := RoundStats{
		Name:         name,
		MaxShardLoad: r.maxShardLoad(),
		Execute:      execTime,
		CacheMisses:  r.misses.Load(),
	}
	if r.curFrames != nil {
		st.RPCFrames = r.curFrames.ReadFrames() - framesBase
	}
	for m := 0; m < r.cfg.P; m++ {
		st.Queries += int64(r.queries[m])
		st.Writes += int64(r.writes[m])
		if r.queries[m] > st.MaxMachineQueries {
			st.MaxMachineQueries = r.queries[m]
		}
		if r.writes[m] > st.MaxMachineWrites {
			st.MaxMachineWrites = r.writes[m]
		}
		st.MaxMachineReadCalls = max(st.MaxMachineReadCalls, r.calls[m])
	}

	// Join the previous round's write-behind publish before freezing: the
	// publisher must be done reading D_{i-1} before it retires, and a
	// failure of that publish must surface here, from the same Round that
	// would have exposed it under synchronous publishing. The barrier is
	// skipped outright when the publisher reports nothing in flight (the
	// mem backend always, the rpc backend after its pre-execute barrier).
	// Then D_{i-1} retires, so the freeze builds D_i in its tables and a
	// round holds one generation, not two. Barrier and retire are timed as
	// publish: one timestamp chain splits the phases because clock reads are
	// not free on every platform and Round is the floor under every
	// algorithm's per-round cost.
	t0 := time.Now()
	if r.pub.InFlight() {
		if err := r.pub.Barrier(); err != nil {
			return fmt.Errorf("ampc: round %d (%s): store publish: %w", r.round, name, err)
		}
	}
	r.retire(nil)
	t1 := time.Now()
	var nextStore *dds.Store
	if static {
		r.static = r.builder.FreezeOnto(r.arena, r.static, r.cfg.P, salt)
		st.Pairs = int(st.Writes)
		nextStore = dds.NewStore(nil, r.cfg.P, r.nextSalt)
	} else {
		nextStore = r.builder.FreezeArena(r.arena, r.cfg.P, salt)
		st.Pairs = nextStore.Len()
	}
	fz := r.builder.LastFreeze()
	t2 := time.Now()
	r.publish(nextStore)
	t3 := time.Now()
	st.Freeze = t2.Sub(t1)
	st.FreezeMerge, st.FreezeBuild = fz.Merge, fz.Build
	st.FreshTableBytes, st.FreshSlabBytes = fz.FreshTableBytes, fz.FreshSlabBytes
	st.Publish = preBarrier + t1.Sub(t0) + t3.Sub(t2)
	if err := r.pubErr; err != nil {
		r.pubErr = nil
		return fmt.Errorf("ampc: round %d (%s): store publish: %w", r.round, name, err)
	}
	r.stats = append(r.stats, st)
	r.round++
	if r.cfg.Observer != nil {
		r.cfg.Observer(st)
	}
	return nil
}

// maxShardLoad returns this round's largest per-DDS-machine query count:
// shard i of the current store and shard i of the static store live on the
// same machine, so their loads add.
func (r *Runtime) maxShardLoad() int64 {
	if r.static == nil {
		return r.cur.MaxShardLoad()
	}
	cur := r.cur.ShardLoads()
	var m int64
	for i, l := range r.static.ShardLoads() {
		m = max(m, l+cur[i])
	}
	return m
}

// runMachine executes machine m's attempts for the current round on the
// lane's Ctx c, recording the final attempt's error and accounting.
func (r *Runtime) runMachine(c *Ctx, m int, f RoundFunc, attempts int) {
	for a := 0; a < attempts; a++ {
		// reset discards the previous attempt's buffered writes (fetching a
		// machine's Writer truncates it), so a simulated mid-round failure
		// restarts the machine from scratch with nothing visible.
		c.reset(r, m)
		err := f(c)
		if c.err != nil {
			err = c.err
		}
		if a == attempts-1 {
			r.errs[m] = err
			r.queries[m] = c.queries
			r.calls[m] = c.calls
			r.writes[m] = c.writes
		}
	}
}

// machineStream derives the RNG stream index for (round, machine) so every
// machine in every round draws from an independent sequence, and a restarted
// machine re-draws exactly the same values.
func machineStream(round, machine int) uint64 {
	return uint64(round)<<32 | uint64(uint32(machine))
}
