package ampc

import (
	"ampc/internal/dds"
	"ampc/internal/rng"
)

// Ctx is one virtual machine's view of a round. It is owned by the runtime
// and used by exactly one goroutine at a time: each lane of a round binds
// one Ctx and resets it per machine it executes, so read tables and scratch
// buffers keep their capacity across machines — and, on the runtime's
// persistent lanes, across rounds — instead of being reallocated P times per
// round.
//
// All Read* methods are adaptive: their arguments may depend on the results
// of earlier reads in the same round. Each distinct query counts against the
// machine's budget; repeats of an already-answered query are served from the
// machine-local memo for free, matching the model's assumption that "each
// worker machine queries for each key at most once" because machines have
// space to cache results. The memo is per machine and nothing more: an entry
// another machine left in a recycled table is dead, so every machine's first
// read of a key is charged and probes the store.
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
	batch  bool                // ReadMany goes to reads as one GetMany: a networked backend
	preGet dds.PrehashedGetter // reads' pre-hashed surface, when it has one
	static *dds.Store
	w      *dds.Writer
	budget int

	queries int
	writes  int
	calls   int // read calls this attempt: an upper bound on its dependent read chain
	err     error

	tbl  getCache // point-read memo over the current store
	stbl getCache // point-read memo over the static store
	// ranges memoizes ReadAll: a key's whole result, held at
	// rangeVals[off : off+n].
	ranges    map[dds.Key]idxRange
	rangeVals []ValueOK

	// stamp identifies the current machine attempt: a table entry with a
	// matching stamp was read by this machine this attempt (a free repeat);
	// any other stamp is a finished machine's leftover, dead to lookups and
	// reusable by inserts. salt and ssalt are the placement salts of the
	// current and static stores, the tables' hash seeds. misses counts point
	// reads that reached a store.
	stamp  uint32
	salt   uint64
	ssalt  uint64
	misses int64

	scratch []dds.Value // staging buffer for batched store reads

	// ReadMany batch scratch: the distinct uncached keys of one call, their
	// hashes and results, and for every appended output either -1 (already
	// final) or the batch slot to copy from.
	batchKeys []dds.Key
	batchHs   []uint64
	batchVals []dds.Value
	batchOks  []bool
	resolve   []int32
}

// getSlot is one entry of the point-read memo: the key's placement hash
// (the table's probe key, shared with the store's shard routing), the key
// itself for collision rejection, the cached result, and the stamp of the
// machine attempt that read it. Stamps start at 1, so a zeroed slot is dead.
// A pending slot is a key of the ReadMany in progress: val.A is its batch
// slot, which is how the call finds its in-batch duplicates.
type getSlot struct {
	h       uint64
	key     dds.Key
	val     dds.Value
	stamp   uint32
	ok      bool
	pending bool
}

// getCache is the open-addressed, linear-probing table behind Read and
// ReadStatic. A hash-keyed flat table beats a map keyed by dds.Key twice
// over: the placement hash is computed once and shared with the store probe
// (the map re-hashed every 24-byte key through aeshash), and recycling is
// O(1) — a stamp bump kills every entry of the finished machine, where
// clearing the map swept its whole bucket array per machine.
//
// Dead slots count as empty. That is sound because an attempt's entries
// never die while it runs: when an entry is inserted, every slot between its
// home and its position holds a live entry, and stays live, so a probe for
// a live key never crosses a dead slot before reaching it. Dead entries
// therefore cost no probe length, and the table needs no sweep between
// machines or store generations.
type getCache struct {
	slots []getSlot
	mask  uint64
	live  uint32 // the attempt whose entries n counts
	n     int    // live entries; insert keeps n <= len/2
}

// getCacheInitSlots is a new table's size: a lane Ctx that dies with its
// round builds its own tables, and most machines read a few dozen keys.
const getCacheInitSlots = 1 << 6

// lookup returns the slot holding (h, k) for the attempt stamped live, or
// nil.
func (t *getCache) lookup(h uint64, k dds.Key, live uint32) *getSlot {
	if t.slots == nil {
		return nil
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.stamp != live {
			return nil
		}
		if s.h == h && s.key == k {
			return s
		}
	}
}

// insert stores (h, k) → (v, ok) for the attempt stamped live in the first
// dead slot of its probe chain and returns the slot, valid until the next
// insert. Callers insert only keys lookup missed.
func (t *getCache) insert(h uint64, k dds.Key, v dds.Value, ok bool, live uint32) *getSlot {
	if t.live != live {
		t.live, t.n = live, 0
	}
	if (t.n+1)*2 > len(t.slots) {
		t.grow()
	}
	i := h & t.mask
	for t.slots[i].stamp == live {
		i = (i + 1) & t.mask
	}
	t.slots[i] = getSlot{h: h, key: k, val: v, stamp: live, ok: ok}
	t.n++
	return &t.slots[i]
}

// grow doubles the table and rehashes the live entries into it; dead ones
// are left behind. A table never shrinks: its size tracks the largest read
// set any machine on its lane has made, so later machines never regrow it.
func (t *getCache) grow() {
	old := t.slots
	n := max(2*len(old), getCacheInitSlots)
	t.slots = make([]getSlot, n)
	t.mask = uint64(n - 1)
	for i := range old {
		s := &old[i]
		if s.stamp != t.live {
			continue
		}
		j := s.h & t.mask
		for t.slots[j].stamp == t.live {
			j = (j + 1) & t.mask
		}
		t.slots[j] = *s
	}
}

// clear kills every entry, keeping the allocation.
func (t *getCache) clear() {
	clear(t.slots)
	t.live, t.n = 0, 0
}

type idxRange struct{ off, n int }

// ValueOK is one result of a batched read: the value and whether the queried
// key (or index of a duplicated key) was present.
type ValueOK struct {
	Value dds.Value
	OK    bool
}

// bind prepares the Ctx for one lane-round: everything constant across the
// machines this lane will run — store references, salts, budget — is set
// once here instead of once per machine in reset. Entries left from earlier
// rounds need no clearing: reset bumps the stamp before any read, which
// makes them dead.
func (c *Ctx) bind(r *Runtime) {
	c.P = r.cfg.P
	c.S = r.cfg.S
	c.Round = r.round
	c.reads = r.cur
	c.batch = r.curFrames != nil
	c.preGet = r.curPre
	c.static = r.static
	c.budget = r.Budget()
	c.salt = r.curSalt
	c.ssalt = r.staticSalt
}

// finish settles a lane-round: the store-read counter flushes to the
// runtime, and the store and writer references drop so a parked Ctx never
// pins the retiring round's store.
func (c *Ctx) finish(r *Runtime) {
	r.misses.Add(c.misses)
	c.misses = 0
	c.reads, c.preGet, c.static, c.w = nil, nil, nil, nil
}

// reset prepares the Ctx to run machine m of the runtime's current round
// (also called between the attempts of a failure-injected machine, so a
// restarted machine re-runs from scratch with identical randomness). The
// stamp bump is what isolates machines sharing a lane: every entry an
// earlier machine (or a discarded attempt) inserted becomes dead.
func (c *Ctx) reset(r *Runtime, m int) {
	c.Machine = m
	if c.RNG == nil {
		c.RNG = rng.New(r.cfg.Seed, machineStream(r.round, m))
	} else {
		c.RNG.Reseed(r.cfg.Seed, machineStream(r.round, m))
	}
	c.w = r.builder.Writer(m)
	c.queries, c.writes, c.calls, c.err = 0, 0, 0, nil
	c.stamp++
	if c.stamp == 0 {
		// Stamp wraparound: a surviving entry from 2^32 attempts ago could
		// alias the fresh stamp, so drop everything once per wrap.
		c.tbl.clear()
		c.stbl.clear()
		c.stamp = 1
	}
	clear(c.ranges)
	c.rangeVals = c.rangeVals[:0]
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

// Read returns the value stored under k in the previous round's store, or
// ok=false if the key is absent or the budget is exhausted (check Err to
// distinguish).
func (c *Ctx) Read(k dds.Key) (dds.Value, bool) { c.calls++; return c.read(k) }

// read is Read without the call count, for the batched reads' scalar loops.
func (c *Ctx) read(k dds.Key) (dds.Value, bool) {
	h := dds.HashOf(k, c.salt)
	if s := c.tbl.lookup(h, k, c.stamp); s != nil {
		return s.val, s.ok
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
	c.tbl.insert(h, k, v, ok, c.stamp)
	return v, ok
}

// ReadMany performs a batched adaptive read: it appends one ValueOK per key
// to dst (pass nil for a fresh slice) and returns the extended slice. The
// semantics are exactly Read in a loop — budget charged once per distinct
// key, already-cached keys free, OK = false past budget exhaustion (check
// Err). It is one read call, however many keys it carries. On a networked
// backend (one that reports read frames: rpc) the call's
// distinct uncached keys go to the store as one GetMany instead of one probe
// each; mem and file serve it through the pre-hashed scalar loop (see
// bindBackend). Results, caching and budget charges are identical either way.
func (c *Ctx) ReadMany(keys []dds.Key, dst []ValueOK) []ValueOK {
	c.calls++
	if !c.batch {
		for _, k := range keys {
			v, ok := c.read(k)
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
		s := c.tbl.lookup(h, k, c.stamp)
		switch {
		case s != nil && s.pending:
			dst = append(dst, ValueOK{})
			c.resolve = append(c.resolve, int32(s.val.A))
		case s != nil:
			dst = append(dst, ValueOK{s.val, s.ok})
			c.resolve = append(c.resolve, -1)
		case !c.charge():
			// Charging happens in key order, exactly as the loop would: the
			// first uncached key past the budget latches ErrBudget and it
			// and every later uncached key read as absent.
			dst = append(dst, ValueOK{})
			c.resolve = append(c.resolve, -1)
		default:
			slot := int32(len(c.batchKeys))
			c.tbl.insert(h, k, dds.Value{A: int64(slot)}, false, c.stamp).pending = true
			c.batchKeys = append(c.batchKeys, k)
			c.batchHs = append(c.batchHs, h)
			dst = append(dst, ValueOK{})
			c.resolve = append(c.resolve, slot)
		}
	}
	if n := len(c.batchKeys); n > 0 {
		if cap(c.batchVals) < n {
			c.batchVals = make([]dds.Value, n)
			c.batchOks = make([]bool, n)
		}
		vals, oks := c.batchVals[:n], c.batchOks[:n]
		c.reads.GetMany(c.batchKeys, vals, oks)
		c.misses += int64(n)
		for i, k := range c.batchKeys {
			s := c.tbl.lookup(c.batchHs[i], k, c.stamp)
			s.val, s.ok, s.pending = vals[i], oks[i], false
		}
		for j, slot := range c.resolve {
			if slot >= 0 {
				dst[base+j] = ValueOK{vals[slot], oks[slot]}
			}
		}
	}
	return dst
}

// ReadAll appends every value stored under k to dst, in index order — the
// §2 MPC simulation's inbox read. It costs 1 + n queries for a key holding
// n values: one to count them, one per value. Past the budget the values
// read as absent and ErrBudget latches. It is two read calls, since the
// range probe depends on the count, or one for an absent key; a repeat of
// the same key on the same machine charges no query.
func (c *Ctx) ReadAll(k dds.Key, dst []ValueOK) []ValueOK {
	c.calls++
	if rg, seen := c.ranges[k]; seen {
		if rg.n > 0 {
			c.calls++
		}
		return append(dst, c.rangeVals[rg.off:rg.off+rg.n]...)
	}
	if !c.charge() {
		return dst
	}
	n := c.reads.Count(k)
	if n > 0 {
		c.calls++
	}
	charged := 0
	for charged < n && c.charge() {
		charged++
	}
	c.scratch = c.reads.GetRange(k, 0, charged, c.scratch[:0])
	off := len(c.rangeVals)
	for i := 0; i < n; i++ {
		var r ValueOK
		if i < len(c.scratch) {
			r = ValueOK{c.scratch[i], true}
		}
		c.rangeVals = append(c.rangeVals, r)
	}
	if c.ranges == nil {
		c.ranges = make(map[dds.Key]idxRange)
	}
	c.ranges[k] = idxRange{off, n}
	return append(dst, c.rangeVals[off:]...)
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
