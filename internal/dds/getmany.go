package dds

import "sync"

// Batched point reads for the in-process stores.
//
// A machine's ReadMany hands the runtime a whole key set at once; answering
// it key by key routes every probe through an independent hash, modulo and
// cold slot-table line. GetMany instead resolves all the shard routes first
// (reusing the same multiply-based remainder the primed writers use — this
// is a throughput-shaped loop, where the divisor beats the hardware divide),
// groups the batch by shard with one counting pass over the shard ids, and
// probes each shard's slot table in one sweep: the per-shard load counter is
// bumped once per run instead of once per key. Results and per-shard load
// totals are exactly what the scalar Get loop would produce — one query
// charged per key.

// gmScratch is the per-call scratch of a GetMany: the precomputed hashes and
// shard ids, the key indices grouped by shard, the shards the batch touches
// and one count per shard (all zero between calls). Pooled so steady-state
// batches allocate nothing.
type gmScratch struct {
	hs             []uint64
	sis, ord, used []uint32
	ends           []int32
}

var gmPool = sync.Pool{New: func() any { return new(gmScratch) }}

// gmScalarCutoff is the batch size below which GetMany degrades to the
// scalar Get loop: the grouping and scratch bookkeeping only pay for
// themselves once a batch has enough keys to form same-shard runs.
const gmScalarCutoff = 16

// GetMany implements StoreBackend: vals[i], oks[i] receive exactly what
// Get(keys[i]) would return, with identical per-shard load accounting (one
// query per key). The three slices must have equal length.
func (s *Store) GetMany(keys []Key, vals []Value, oks []bool) {
	n := len(keys)
	if n < gmScalarCutoff {
		for i, k := range keys {
			vals[i], oks[i] = s.Get(k)
		}
		return
	}
	g := gmPool.Get().(*gmScratch)
	if cap(g.hs) < n {
		g.hs, g.sis, g.ord, g.used = make([]uint64, n), make([]uint32, n), make([]uint32, n), make([]uint32, n)
	}
	if len(g.ends) < len(s.shards) {
		g.ends = make([]int32, len(s.shards))
	}
	hs, sis, ord, used, ends := g.hs[:n], g.sis[:n], g.ord[:n], g.used[:0], g.ends
	for i, k := range keys {
		h := hash(k, s.salt)
		si := uint32(s.div.mod(h))
		hs[i], sis[i] = h, si
		if ends[si] == 0 {
			used = append(used, si)
		}
		ends[si]++
	}
	// Turn the counts into each touched shard's first position, then scatter
	// the indices in input order: ends[si] finishes as the end of si's run.
	var at int32
	for _, si := range used {
		ends[si], at = at, at+ends[si]
	}
	for i, si := range sis {
		ord[ends[si]] = uint32(i)
		ends[si]++
	}
	lo := int32(0)
	for _, si := range used {
		hi := ends[si]
		ends[si] = 0
		sh := &s.shards[si]
		sh.load.Add(int64(hi - lo))
		for _, i := range ord[lo:hi] {
			if sl := sh.find(keys[i], hs[i]); sl != nil {
				vals[i], oks[i] = sh.first(sl), true
			} else {
				vals[i], oks[i] = Value{}, false
			}
		}
		lo = hi
	}
	gmPool.Put(g)
}
