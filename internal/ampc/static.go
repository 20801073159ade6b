package ampc

import "ampc/internal/dds"

// Static data support.
//
// In the AMPC model, data written in round i is visible only in round i+1;
// data needed later must be re-written every round. In the paper the
// algorithms keep the input graph "in the DDS" throughout, and each machine
// could re-publish its O(S) share every round at no asymptotic cost, so the
// model permits this — but simulating the copy would dominate runtime
// without changing any measured quantity. The runtime therefore maintains a
// static side store: StaticRound publishes pairs once, as one real, counted
// round whose writes go through one freeze under the static store's salt,
// and ReadStatic serves them in every later round, charged against the
// reading machine's budget exactly like Read. The round's D_i is empty:
// static pairs are read only through ReadStatic.
//
// A StaticRound's machines generate their own blocks of records, the way
// connectivity's publish rounds write a contracted graph, so the master
// never holds the published list: MIS and coloring emit their rank-ordered
// graph by record ordinal (graph.Ranked). AddStatic is the wrapper for a
// caller that already holds the list.
//
// The static store does not live in the backend's DDS. On every backend —
// mem, file and rpc alike — it is an in-process *dds.Store: it is written
// to no segment and sent to no shard server, and ReadStatic and
// ReadStaticMany never send an rpc frame. Over a fleet, MIS, matching,
// coloring, list ranking, cycle connectivity and biconn's RMQ therefore
// report 0 RPCFrames for their static reads.

// StaticRound is the static twin of Round: f runs on all P machines, each
// writing its share of the static pairs, so per-machine write budgets are
// enforced. The round's freeze builds the new static store on top of the
// current one — earlier calls' pairs first, so a key published again gains
// values after its earlier ones — and the pairs remain readable via
// Ctx.ReadStatic for the rest of the computation. f reads D_{i-1} like any
// round; the D_i it leaves is empty.
func (r *Runtime) StaticRound(name string, f RoundFunc) error { return r.run(name, f, true) }

// AddStatic publishes a pair list into the static store through StaticRound:
// the P machines split the list into blocks and each writes its block.
func (r *Runtime) AddStatic(name string, pairs []dds.KV) error {
	return r.StaticRound(name, func(ctx *Ctx) error {
		lo, hi := BlockRange(ctx.Machine, len(pairs), ctx.P)
		ctx.WriteMany(pairs[lo:hi])
		return nil
	})
}

// ReadStatic returns the value stored under k in the static store. It is
// charged and cached like Read.
func (c *Ctx) ReadStatic(k dds.Key) (dds.Value, bool) { c.calls++; return c.readStatic(k) }

func (c *Ctx) readStatic(k dds.Key) (dds.Value, bool) {
	// Static reads get their own memo table, keyed by the static store's
	// placement hash; the probe charges the static store's shard ledger,
	// which Round folds into the round's MaxShardLoad.
	h := dds.HashOf(k, c.ssalt)
	if s := c.stbl.lookup(h, k, c.stamp); s != nil {
		return s.val, s.ok
	}
	if !c.charge() {
		return dds.Value{}, false
	}
	var v dds.Value
	var ok bool
	if c.static != nil {
		v, ok = c.static.GetHashed(k, h)
	}
	c.misses++
	c.stbl.insert(h, k, v, ok, c.stamp)
	return v, ok
}

// ReadStaticMany is the static-store counterpart of ReadMany: one ValueOK
// per key appended to dst, budget charged per distinct uncached key.
func (c *Ctx) ReadStaticMany(keys []dds.Key, dst []ValueOK) []ValueOK {
	c.calls++
	for _, k := range keys {
		v, ok := c.readStatic(k)
		dst = append(dst, ValueOK{v, ok})
	}
	return dst
}
