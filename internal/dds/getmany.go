package dds

import (
	"slices"
	"sync"
)

// Batched point reads for the in-process stores.
//
// A machine's ReadMany hands the runtime a whole key set at once; answering
// it key by key routes every probe through an independent hash, modulo and
// cold slot-table line. GetMany instead resolves all the shard routes first
// (reusing the same multiply-based remainder the primed writers use — this
// is a throughput-shaped loop, where the divisor beats the hardware divide),
// sorts the batch by shard, and probes each shard's slot table in one
// sequential sweep: the shard's slots and bitmap stay resident across the
// run, and the per-shard load counter is bumped once per run instead of once
// per key. Results and per-shard load totals are exactly what the scalar Get
// loop would produce — one query charged per key.

// Salter is an optional StoreBackend capability exposing the placement salt
// the store was built with. A caller holding the salt computes the placement
// hash itself (HashOf) — the runtime's read memo keys its table by it and
// hands it to PrehashedGetter, so each read hashes its key once.
type Salter interface {
	Salt() uint64
}

// gmScratch is the per-call scratch of a GetMany: the precomputed hashes and
// the shard-sorted order. Pooled so steady-state batches allocate nothing.
type gmScratch struct {
	hs  []uint64
	ord []uint64 // shard<<32 | input index, sorted
}

var gmPool = sync.Pool{New: func() any { return new(gmScratch) }}

func (g *gmScratch) grow(n int) {
	if cap(g.hs) < n {
		g.hs = make([]uint64, n)
		g.ord = make([]uint64, n)
	}
	g.hs = g.hs[:n]
	g.ord = g.ord[:n]
}

// gmScalarCutoff is the batch size below which GetMany degrades to the
// scalar Get loop: the sort and scratch bookkeeping only pay for themselves
// once a batch has enough keys to form same-shard runs.
const gmScalarCutoff = 16

// GetMany implements BatchGetter: vals[i], oks[i] receive exactly what
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
	g.grow(n)
	hs, ord := g.hs, g.ord
	for i, k := range keys {
		h := hash(k, s.salt)
		hs[i] = h
		ord[i] = s.div.mod(h)<<32 | uint64(uint32(i))
	}
	slices.Sort(ord)
	for lo := 0; lo < n; {
		si := ord[lo] >> 32
		hi := lo + 1
		for hi < n && ord[hi]>>32 == si {
			hi++
		}
		sh := &s.shards[si]
		sh.load.Add(int64(hi - lo))
		for j := lo; j < hi; j++ {
			i := int(uint32(ord[j]))
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

var (
	_ BatchGetter = (*Store)(nil)
	_ Salter      = (*Store)(nil)
)
