package ampc

import (
	"ampc/internal/dds"
	"ampc/internal/rng"
)

// Ctx is one virtual machine's view of a round. It is owned by the runtime,
// used by exactly one goroutine at a time, and recycled: each pool worker
// binds one Ctx per round and resets it per machine it executes, so cache
// maps and scratch buffers keep their capacity across machines and rounds
// instead of being reallocated P times per round. A remote round (one whose
// store reports read frames) is the exception: there every machine runs at
// once on a fresh Ctx of its own, and cross-machine dedup is the networked
// backend's per-generation single-flight.
//
// All Read* methods are adaptive: their arguments may depend on the results
// of earlier reads in the same round. Each distinct query counts against the
// machine's budget; repeats of an already-answered query are served from the
// machine-local cache for free, matching the model's assumption that "each
// worker machine queries for each key at most once" because machines have
// space to cache results.
//
// On top of the per-machine cache sits the worker cache: point-read table
// entries survive from one machine to the next on the same worker, stamped
// with the machine-attempt that inserted them. D_{i-1} is immutable for the
// whole round, so when a later machine reads a key an earlier machine on
// this worker already fetched, the cached value is byte-identical to what
// the store would return — the machine is still charged its query and the
// owning shard still counts it (the model's accounting never changes), but
// the store probe is saved. Entries are invalidated when the store
// generation changes and ignored (via the stamp) for budget purposes, so
// queries, max_machine_queries and every output stay byte-identical with
// the cache on or off.
type Ctx struct {
	// Machine is this machine's id in [0, P).
	Machine int
	// P and S echo the runtime configuration.
	P, S int
	// Round is the zero-based index of the executing round.
	Round int
	// RNG is this machine's private random stream, a deterministic function
	// of (seed, round, machine).
	RNG *rng.RNG

	reads  dds.StoreBackend
	batch  dds.BatchGetter     // reads' batch surface, when it has one
	preGet dds.PrehashedGetter // reads' pre-hashed surface, when it has one
	static *dds.Store
	w      *dds.Writer
	budget int

	queries int
	writes  int
	err     error

	tbl        getCache // point-read cache over the current store
	stbl       getCache // point-read cache over the static store
	cacheIdx   map[indexedKey]cachedValue
	cacheCount map[dds.Key]int

	// Worker-cache state. stamp identifies the current machine attempt: a
	// table entry with a matching stamp was read by this machine this
	// attempt (repeat — free); a mismatched stamp means an earlier machine
	// on this worker read it from the same store (hit — charged, served
	// without a store probe). sharedDyn gates that layer for the current
	// store's table and sharedStatic for the static one; both start on and
	// answer to a payoff policy (cachePolicy below) that watches whether
	// machines actually re-read each other's keys. When a side is off, its
	// stale entries are dead and a re-read misses to the store,
	// reproducing the pre-cache behavior exactly.
	sharedDyn    bool
	sharedStatic bool
	stamp        uint32
	gen          int             // store generation (pubSeq) tbl belongs to
	sgen         int             // static generation (staticSeq) stbl belongs to
	salt         uint64          // reads' placement salt; tbl's hash seed
	ssalt        uint64          // static store's placement salt; stbl's hash seed
	div          dds.ShardDiv    // hash→shard, for hit shard attribution
	loads        []int64         // deferred per-shard load deltas from hits
	sloads       []int64         // same, for static-store hits
	loadSink     dds.LoadBatcher // where loads settles at round end
	hits         int64           // worker-cache hits (charged, probe saved)
	sHits        int64           // same, against the static store
	misses       int64           // point reads that reached a store

	// Payoff policies for the two shared tables.
	dpol cachePolicy
	spol cachePolicy

	scratch []dds.Value // staging buffer for batched store reads

	// ReadMany batch scratch: the distinct uncached keys of one call, their
	// hashes and results, and for every appended output either -1 (already
	// final) or the batch slot to copy from. pendingIdx detects in-batch
	// duplicates; it is empty between calls.
	batchKeys  []dds.Key
	batchHs    []uint64
	batchVals  []dds.Value
	batchOks   []bool
	resolve    []int32
	pendingIdx map[dds.Key]int32
}

type cachedValue struct {
	v     dds.Value
	stamp uint32
	ok    bool
}

// getSlot is one entry of the point-read cache: the key's placement hash
// (the table's probe key, shared with the store's shard routing), the key
// itself for collision rejection, the cached result, and the stamp of the
// machine attempt that last read it. stamp == 0 marks a never-used slot.
type getSlot struct {
	h     uint64
	key   dds.Key
	val   dds.Value
	stamp uint32
	ok    bool
}

// getCache is the open-addressed table behind Read and ReadStatic. A
// hash-keyed flat table beats a map[dds.Key]cachedValue twice over: the
// placement hash is computed once and shared with the store probe (the map
// re-hashed every 24-byte key through aeshash), and recycling is O(1) — a
// stamp bump dead-ends every entry of the finished machine, where clearing
// the map swept its whole bucket array per machine.
type getCache struct {
	slots []getSlot
	mask  uint64
	used  int // slots with stamp != 0; insertion keeps used <= 5/8 len
}

// A new table starts at getCacheInitSlots — every machine of a remote round
// builds its own, and most read a few dozen keys. compact never shrinks a
// table that has grown past getCacheMinSlots below it, and drop restarts one
// there.
const (
	getCacheInitSlots = 1 << 6
	getCacheMinSlots  = 1 << 10
)

// lookup returns the slot holding (h, k) — live or stale; the caller
// decides by stamp — or nil. Chains terminate at never-used slots only, so
// stale entries keep later entries of their chain reachable.
func (t *getCache) lookup(h uint64, k dds.Key) *getSlot {
	if t.used == 0 {
		return nil
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.stamp == 0 {
			return nil
		}
		if s.h == h && s.key == k {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// insert stores (h, k) → (v, ok) stamped as stamp. A slot already holding k
// is overwritten in place. Otherwise the entry lands in the first dead slot
// of its probe chain — live != 0 declares every stamp but live dead (the
// per-machine mode) — or in the chain's empty tail. Shared mode passes
// live == 0: every stamped entry is a valid cache line for the current
// generation and nothing is reused.
func (t *getCache) insert(h uint64, k dds.Key, v dds.Value, ok bool, stamp, live uint32) {
	if t.slots == nil {
		t.slots = make([]getSlot, getCacheInitSlots)
		t.mask = getCacheInitSlots - 1
	}
	i := h & t.mask
	dead := -1
	for {
		s := &t.slots[i]
		if s.stamp == 0 {
			if dead >= 0 {
				s = &t.slots[dead]
			} else {
				t.used++
			}
			*s = getSlot{h: h, key: k, val: v, stamp: stamp, ok: ok}
			break
		}
		if s.h == h && s.key == k {
			s.val, s.ok, s.stamp = v, ok, stamp
			return
		}
		if dead < 0 && live != 0 && s.stamp != live {
			dead = int(i)
		}
		i = (i + 1) & t.mask
	}
	if t.used*8 > len(t.slots)*5 {
		t.compact(live)
	}
}

// compact rebuilds the table keeping only live entries — every stamped
// entry in shared mode (live == 0), the current attempt's otherwise — and
// resizes the slot array to fit the live set: doubling when it crowds the
// table, shrinking when dead entries were most of it. The grow target
// leaves the live set under 3/8 of the slots: lookup is the hottest
// instruction path in read-heavy algorithms, and the extra memory is
// cheaper than the probe chains a denser table grows. In per-machine mode
// this is the analogue of the old per-machine map clear, but amortized: it
// runs only when dead entries from finished machines have filled five
// eighths of the table.
func (t *getCache) compact(live uint32) {
	keep := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.stamp != 0 && (live == 0 || s.stamp == live) {
			keep++
		}
	}
	n := len(t.slots)
	for keep*8 > n*3 {
		n *= 2
	}
	for n > getCacheMinSlots && keep*8 <= n {
		n /= 2
	}
	old := t.slots
	t.slots = make([]getSlot, n)
	t.mask = uint64(n - 1)
	t.used = keep
	for i := range old {
		s := &old[i]
		if s.stamp == 0 || (live != 0 && s.stamp != live) {
			continue
		}
		j := s.h & t.mask
		for t.slots[j].stamp != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = *s
	}
}

// clear drops every entry, keeping the allocation.
func (t *getCache) clear() {
	if t.used > 0 {
		clear(t.slots)
		t.used = 0
	}
}

// drop releases the table's entries and slots, restarting it at the
// getCacheMinSlots floor: a dropped table goes on serving a worker's
// machines in per-machine mode, where a smaller one would compact more often.
func (t *getCache) drop() {
	*t = getCache{slots: make([]getSlot, getCacheMinSlots), mask: getCacheMinSlots - 1}
}

// cachePolicy decides whether sharing one worker-cache table across machines
// keeps paying for itself. Sharing pays only when machines actually re-read
// each other's keys: on a pointer-jumping workload every machine reads fresh
// keys, the table balloons past cache residency, and every cold probe costs
// more than the ~35ns in-memory store probe a hit would save. The hot paths
// count every charged shared-mode read and how many were table hits; every
// policyWindow-th read closes a window and judge renders a verdict. A hit
// rate under 1/16 switches the table off for good — access patterns that
// are disjoint once stay so, and a sticky verdict keeps the policy free of
// flapping. Workloads with real re-reading clear the bar inside the first
// window (MIS overlaps 13% in its first 8k reads and climbs to 84%;
// list-ranking never passes 3%). Turning the table off never changes any
// output: a hit and a store probe charge the machine, the shard ledger and
// the telemetry identically, so the switch is invisible to the model.
type cachePolicy struct {
	probes, hits   int64 // charged shared-mode reads; table hits among them
	probes0, hits0 int64 // values when the last window closed
	off            bool
	dropPending    bool // table should be dropped at the next bind
}

// policyWindow is the judgement granularity: hot paths call judge when
// probes crosses a multiple of it, so verdicts land mid-round, before an
// unprofitable table has grown past a few thousand entries.
const policyWindow = 1 << 13

// judge closes the current window and reports whether it just switched the
// table off. The caller must also stop treating stale entries as hits
// (clear sharedDyn/sharedStatic); the table itself is dropped at the next
// bind, never mid-machine — the current machine's live entries are what
// make its repeats free, and evicting them would turn repeats back into
// charged queries.
func (p *cachePolicy) judge() bool {
	w := p.probes - p.probes0
	h := p.hits - p.hits0
	p.probes0, p.hits0 = p.probes, p.hits
	if h*16 < w {
		p.off = true
		p.dropPending = true
		return true
	}
	return false
}

type indexedKey struct {
	k dds.Key
	i int
}

// ValueOK is one result of a batched read: the value and whether the queried
// (key, index) was present.
type ValueOK struct {
	Value dds.Value
	OK    bool
}

// resetMapThreshold bounds the cost of recycling a Ctx between machines:
// clearing a map sweeps its whole bucket array, so after an unusually
// read-heavy machine it is cheaper to drop the map and let the next machine
// grow a fresh one.
const resetMapThreshold = 1 << 12

// bind prepares the Ctx for one worker-round: everything constant across the
// machines this worker will run — store references, budget, the worker-cache
// wiring — is set once here instead of P/Workers times in reset. The
// point-read table is keyed by the current store's placement hash, so a
// generation change (new store, new salt) invalidates it outright: entries
// describe a store that no longer serves reads, and their hashes no longer
// route.
func (c *Ctx) bind(r *Runtime) {
	c.P = r.cfg.P
	c.S = r.cfg.S
	c.Round = r.round
	c.reads = r.cur
	c.batch = r.curBatch
	c.preGet = r.curPre
	c.loadSink = r.curLoads
	c.static = r.static
	c.budget = r.Budget()
	c.sharedDyn = r.curCache && !c.dpol.off
	c.sharedStatic = !r.cfg.NoWorkerCache && !c.spol.off
	if c.dpol.dropPending {
		c.dpol.dropPending = false
		c.tbl.drop()
	}
	if c.spol.dropPending {
		c.spol.dropPending = false
		c.stbl.drop()
	}
	c.salt = r.curSalt
	c.ssalt = r.staticSalt
	c.div = r.shardDiv
	if c.gen != r.pubSeq {
		c.gen = r.pubSeq
		c.tbl.clear()
	}
	// The static table outlives store generations — the static store is
	// immutable for the whole computation — and drops only when AddStatic
	// rebuilds it, or when its observed hit rate shows the workload never
	// re-reads keys (sticky: access patterns that start disjoint stay so).
	if c.sgen != r.staticSeq {
		c.sgen = r.staticSeq
		c.stbl.clear()
	}
}

// finish settles a worker-round: deferred shard loads flush to the store
// (one batched add instead of an atomic per hit), hit/miss counters flush to
// the runtime, and the store and writer references drop so a parked Ctx
// never pins the retiring round's store.
func (c *Ctx) finish(r *Runtime) {
	if c.hits > 0 {
		c.loadSink.AddShardLoads(c.loads)
		for i := range c.loads {
			c.loads[i] = 0
		}
	}
	if c.sHits > 0 && c.static != nil {
		c.static.AddShardLoads(c.sloads)
		for i := range c.sloads {
			c.sloads[i] = 0
		}
	}
	r.hits.Add(c.hits + c.sHits)
	r.misses.Add(c.misses)
	c.hits, c.sHits, c.misses = 0, 0, 0
	c.reads, c.batch, c.preGet, c.static, c.w, c.loadSink = nil, nil, nil, nil, nil, nil
}

// reset prepares the Ctx to run machine m of the runtime's current round
// (also called between the attempts of a failure-injected machine, so a
// restarted machine re-runs from scratch with identical randomness). The
// stamp bump is what isolates machines sharing the worker cache: every
// entry an earlier machine (or a discarded attempt) inserted becomes a
// charged hit instead of a free repeat.
func (c *Ctx) reset(r *Runtime, m int) {
	c.Machine = m
	if c.RNG == nil {
		c.RNG = rng.New(r.cfg.Seed, machineStream(r.round, m))
	} else {
		c.RNG.Reseed(r.cfg.Seed, machineStream(r.round, m))
	}
	c.w = r.builder.Writer(m)
	c.queries, c.writes, c.err = 0, 0, nil
	c.stamp++
	if c.stamp == 0 {
		// Stamp wraparound: a surviving entry from 2^32 attempts ago could
		// alias the fresh stamp, so drop everything once per wrap.
		c.tbl.clear()
		c.stbl.clear()
		c.stamp = 1
	}
	if len(c.cacheIdx) > resetMapThreshold {
		c.cacheIdx = nil
	} else {
		clear(c.cacheIdx)
	}
	if len(c.cacheCount) > resetMapThreshold {
		c.cacheCount = nil
	} else {
		clear(c.cacheCount)
	}
}

// charge consumes one unit of query budget. It reports false (and latches
// ErrBudget) when the budget is exhausted.
func (c *Ctx) charge() bool {
	if c.err != nil {
		return false
	}
	if c.queries >= c.budget {
		c.err = ErrBudget
		return false
	}
	c.queries++
	return true
}

// Err returns the first budget violation hit by this machine, if any.
func (c *Ctx) Err() error { return c.err }

// Queries returns the number of budget-charged queries so far this round.
func (c *Ctx) Queries() int { return c.queries }

// Remaining returns the unconsumed query budget.
func (c *Ctx) Remaining() int {
	if c.err != nil {
		return 0
	}
	return c.budget - c.queries
}

// hit finalizes a worker-cache hit on a stale table slot: the machine was
// charged, so the owning shard is credited locally (settled in one batched
// add at round end) and the slot is restamped as this machine's read. The
// per-shard delta array is allocated by the first hit: a Ctx that never
// hits, like every remote machine's, never pays for it.
func (c *Ctx) hit(s *getSlot) (dds.Value, bool) {
	if c.loads == nil {
		c.loads = make([]int64, c.P)
	}
	c.loads[c.div.Of(s.h)]++
	c.hits++
	c.dpol.hits++
	c.dynProbe()
	s.stamp = c.stamp
	return s.val, s.ok
}

// dynProbe counts one charged read against the dynamic table's payoff
// policy and applies its verdict when a window closes.
func (c *Ctx) dynProbe() {
	c.dpol.probes++
	if !c.dpol.off && c.dpol.probes&(policyWindow-1) == 0 && c.dpol.judge() {
		c.sharedDyn = false
	}
}

// staticProbe is dynProbe for the static table.
func (c *Ctx) staticProbe() {
	c.spol.probes++
	if !c.spol.off && c.spol.probes&(policyWindow-1) == 0 && c.spol.judge() {
		c.sharedStatic = false
	}
}

// liveDyn returns the stamp that marks current-store table entries
// reusable for insertion: none in shared mode (every entry is a valid
// cache line), the current attempt's otherwise. liveStatic is the static
// table's counterpart.
func (c *Ctx) liveDyn() uint32 {
	if c.sharedDyn {
		return 0
	}
	return c.stamp
}

func (c *Ctx) liveStatic() uint32 {
	if c.sharedStatic {
		return 0
	}
	return c.stamp
}

// Read returns the value stored under k in the previous round's store, or
// ok=false if the key is absent or the budget is exhausted (check Err to
// distinguish).
func (c *Ctx) Read(k dds.Key) (dds.Value, bool) {
	h := dds.HashOf(k, c.salt)
	if s := c.tbl.lookup(h, k); s != nil {
		if s.stamp == c.stamp {
			return s.val, s.ok
		}
		if c.sharedDyn {
			// Worker-cache hit: an earlier machine on this worker read k
			// from this same immutable generation. This machine is charged
			// exactly as a first read; only the store probe is saved.
			if !c.charge() {
				return dds.Value{}, false
			}
			return c.hit(s)
		}
		// Per-machine mode: the entry is a finished machine's leftover.
		// Fall through to a real store read; insert will reuse the slot.
	}
	if !c.charge() {
		return dds.Value{}, false
	}
	var v dds.Value
	var ok bool
	if c.preGet != nil {
		v, ok = c.preGet.GetHashed(k, h)
	} else {
		v, ok = c.reads.Get(k)
	}
	c.misses++
	c.dynProbe()
	c.tbl.insert(h, k, v, ok, c.stamp, c.liveDyn())
	return v, ok
}

// ReadIndexed returns the i-th value stored under a duplicated key.
func (c *Ctx) ReadIndexed(k dds.Key, i int) (dds.Value, bool) {
	ik := indexedKey{k, i}
	if cv, found := c.cacheIdx[ik]; found {
		return cv.v, cv.ok
	}
	if !c.charge() {
		return dds.Value{}, false
	}
	v, ok := c.reads.GetIndexed(k, i)
	if c.cacheIdx == nil {
		c.cacheIdx = make(map[indexedKey]cachedValue)
	}
	c.cacheIdx[ik] = cachedValue{v, c.stamp, ok}
	return v, ok
}

// CountKey returns the number of values stored under k.
func (c *Ctx) CountKey(k dds.Key) int {
	if n, found := c.cacheCount[k]; found {
		return n
	}
	if !c.charge() {
		return 0
	}
	n := c.reads.Count(k)
	if c.cacheCount == nil {
		c.cacheCount = make(map[dds.Key]int)
	}
	c.cacheCount[k] = n
	return n
}

// ReadMany performs a batched adaptive read: it appends one ValueOK per key
// to dst (pass nil for a fresh slice) and returns the extended slice. The
// semantics are exactly Read in a loop — budget charged once per distinct
// key, already-cached keys free, OK = false past budget exhaustion (check
// Err). When the store backend batches (dds.BatchGetter — every built-in
// backend), the call's distinct uncached keys go to the store as one
// GetMany instead of one probe each; results, caching and budget charges
// are identical either way.
func (c *Ctx) ReadMany(keys []dds.Key, dst []ValueOK) []ValueOK {
	if c.batch == nil {
		for _, k := range keys {
			v, ok := c.Read(k)
			dst = append(dst, ValueOK{v, ok})
		}
		return dst
	}
	base := len(dst)
	c.batchKeys = c.batchKeys[:0]
	c.batchHs = c.batchHs[:0]
	c.resolve = c.resolve[:0]
	for _, k := range keys {
		h := dds.HashOf(k, c.salt)
		if s := c.tbl.lookup(h, k); s != nil {
			if s.stamp == c.stamp {
				dst = append(dst, ValueOK{s.val, s.ok})
				c.resolve = append(c.resolve, -1)
				continue
			}
			if c.sharedDyn {
				// Worker-cache hit, finalized inline: charged in key order
				// like the scalar loop, served without joining the store
				// batch.
				if !c.charge() {
					dst = append(dst, ValueOK{})
					c.resolve = append(c.resolve, -1)
					continue
				}
				v, ok := c.hit(s)
				dst = append(dst, ValueOK{v, ok})
				c.resolve = append(c.resolve, -1)
				continue
			}
		}
		if slot, dup := c.pendingIdx[k]; dup {
			dst = append(dst, ValueOK{})
			c.resolve = append(c.resolve, slot)
			continue
		}
		// Charging happens in key order, exactly as the loop would: the
		// first uncached key past the budget latches ErrBudget and it and
		// every later uncached key read as absent.
		if !c.charge() {
			dst = append(dst, ValueOK{})
			c.resolve = append(c.resolve, -1)
			continue
		}
		if c.pendingIdx == nil {
			c.pendingIdx = make(map[dds.Key]int32)
		}
		c.pendingIdx[k] = int32(len(c.batchKeys))
		c.batchKeys = append(c.batchKeys, k)
		c.batchHs = append(c.batchHs, h)
		dst = append(dst, ValueOK{})
		c.resolve = append(c.resolve, int32(len(c.batchKeys)-1))
	}
	if n := len(c.batchKeys); n > 0 {
		if cap(c.batchVals) < n {
			c.batchVals = make([]dds.Value, n)
			c.batchOks = make([]bool, n)
		}
		vals, oks := c.batchVals[:n], c.batchOks[:n]
		c.batch.GetMany(c.batchKeys, vals, oks)
		c.misses += int64(n)
		live := c.liveDyn()
		for i, k := range c.batchKeys {
			c.tbl.insert(c.batchHs[i], k, vals[i], oks[i], c.stamp, live)
		}
		for j, slot := range c.resolve {
			if slot >= 0 {
				dst[base+j] = ValueOK{vals[slot], oks[slot]}
			}
		}
		clear(c.pendingIdx)
	}
	return dst
}

// ReadIndexedMany reads the first n indexed values of a duplicated key in
// one batch, appending them to dst. When none of the indices is cached —
// the common case for inbox-style drains — the store is probed once for the
// whole range instead of n times. Each uncached index is charged against
// the budget like a ReadIndexed call.
func (c *Ctx) ReadIndexedMany(k dds.Key, n int, dst []ValueOK) []ValueOK {
	if n <= 0 {
		return dst
	}
	if len(c.cacheIdx) > 0 {
		// Conservative fallback: any cached indexed read (for any key)
		// disables the single-probe path, because charging a cached index
		// twice would violate the count-once budget rule and checking this
		// key's n indices individually costs what the fast path saves.
		// Machines that drain inboxes batch-first never pay this.
		for i := 0; i < n; i++ {
			v, ok := c.ReadIndexed(k, i)
			dst = append(dst, ValueOK{v, ok})
		}
		return dst
	}
	charged := 0
	for charged < n && c.charge() {
		charged++
	}
	c.scratch = c.reads.GetRange(k, 0, charged, c.scratch[:0])
	if charged > 0 && c.cacheIdx == nil {
		c.cacheIdx = make(map[indexedKey]cachedValue)
	}
	for i := 0; i < n; i++ {
		var r ValueOK
		if i < charged {
			if i < len(c.scratch) {
				r = ValueOK{c.scratch[i], true}
			}
			c.cacheIdx[indexedKey{k, i}] = cachedValue{r.Value, c.stamp, r.OK}
		}
		dst = append(dst, r)
	}
	return dst
}

// Write appends one pair to the next round's store. Writing beyond the
// budget latches ErrBudget and drops the pair.
func (c *Ctx) Write(k dds.Key, v dds.Value) {
	if c.err != nil {
		return
	}
	if c.writes >= c.budget {
		c.err = ErrBudget
		return
	}
	c.writes++
	c.w.Write(k, v)
}

// WriteMany appends a batch of pairs to the next round's store, in slice
// order, mirroring ReadMany on the write side. The semantics are exactly
// Write in a loop — each pair charges one unit of write budget, and the
// first pair past the budget latches ErrBudget and drops itself and the
// rest — but a batch that fits the remaining budget is charged once and
// handed to the writer whole, so hot write loops pay one budget check per
// batch instead of one per pair.
func (c *Ctx) WriteMany(kvs []dds.KV) {
	if c.err != nil {
		return
	}
	if c.writes+len(kvs) <= c.budget {
		c.writes += len(kvs)
		c.w.WriteMany(kvs)
		return
	}
	for _, kv := range kvs {
		c.Write(kv.Key, kv.Value)
	}
}

// GrowWrites reserves writer capacity for n more pairs — a machine that knows
// its output size up front calls it once so the writes that follow never
// reallocate. The reservation is clipped to the remaining write budget:
// pairs past it would be dropped anyway.
func (c *Ctx) GrowWrites(n int) {
	if room := c.budget - c.writes; n > room {
		n = room
	}
	c.w.Grow(n)
}

// Writes returns the number of pairs written so far this round.
func (c *Ctx) Writes() int { return c.writes }
