package rpc

import (
	"sync"
	"sync/atomic"

	"ampc/internal/dds"
)

// Backend is the StoreBackend reading one published generation from the
// shard servers. Shard metadata (salt, sizes, pair count) is captured from
// the frozen store at publish time, so routing and accounting are local;
// only the key probes travel. StoreBackend reads have no error returns —
// a transport failure that survives replica failover latches here and the
// runtime surfaces it from the round via ReadErr.
// Every point read joins its server's next getBatch frame and nothing is
// shared between reads: the frame entry is a read's whole cost.
type Backend struct {
	c     *client
	seq   uint64
	p     int
	salt  uint64
	pairs int
	sizes []int
	loads []atomic.Int64

	errMu sync.Mutex
	err   error
}

func newBackend(c *client, seq uint64, s *dds.Store) *Backend {
	return &Backend{
		c:     c,
		seq:   seq,
		p:     s.Shards(),
		salt:  s.Salt(),
		pairs: s.Len(),
		sizes: s.ShardSizes(),
		loads: make([]atomic.Int64, s.Shards()),
	}
}

// fail latches the first read failure for the runtime to surface.
func (b *Backend) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
}

// ReadErr returns the first latched read failure, if any.
func (b *Backend) ReadErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// Get returns the value stored under k (index 0 of a duplicated key): a
// batch of one on GetMany's path.
func (b *Backend) Get(k dds.Key) (dds.Value, bool) {
	shard := dds.ShardOf(k, b.salt, b.p)
	b.loads[shard].Add(1)
	v, ok, err := b.c.getOne(b.seq, k, shard, b.p)
	if err != nil {
		b.fail(err)
	}
	return v, ok
}

// GetRange appends the values stored under k at indices [lo, hi) to dst,
// charging the shard hi-lo queries but probing the key once — one request
// frame however wide the range.
func (b *Backend) GetRange(k dds.Key, lo, hi int, dst []dds.Value) []dds.Value {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return dst
	}
	shard := dds.ShardOf(k, b.salt, b.p)
	b.loads[shard].Add(int64(hi - lo))
	out, err := b.c.getRange(b.seq, k, lo, hi, shard, b.p, dst)
	if err != nil {
		b.fail(err)
		return dst
	}
	return out
}

// Count returns the number of pairs stored under k.
func (b *Backend) Count(k dds.Key) int {
	shard := dds.ShardOf(k, b.salt, b.p)
	b.loads[shard].Add(1)
	n, err := b.c.count(b.seq, k, shard, b.p)
	if err != nil {
		b.fail(err)
		return 0
	}
	return n
}

// GetMany implements dds.StoreBackend: the key set is grouped by owning
// server and each server's share joins that server's next request frame.
// Keys whose server fails advance to the next replica in lockstep rounds; a
// key whose replicas are all exhausted reads as absent and latches the
// failure.
func (b *Backend) GetMany(keys []dds.Key, vals []dds.Value, oks []bool) {
	if len(keys) == 0 {
		return
	}
	sc := readPool.Get().(*readScratch)
	sc.shards = sc.shards[:0]
	for _, k := range keys {
		shard := dds.ShardOf(k, b.salt, b.p)
		b.loads[shard].Add(1)
		sc.shards = append(sc.shards, shard)
	}
	if err := b.c.read(sc, b.seq, b.p, keys, vals, oks); err != nil {
		b.fail(err)
	}
	readPool.Put(sc)
}

// Salt implements dds.StoreBackend: the placement salt captured from the frozen
// store at publish time.
func (b *Backend) Salt() uint64 { return b.salt }

// ReadFrames returns the total read-path request frames this backend's
// client has sent, retries included. The counter is client-wide (it spans
// generations); callers diff it around a window.
func (b *Backend) ReadFrames() int64 { return b.c.frames.Load() }

// Len returns the total number of pairs in the store.
func (b *Backend) Len() int { return b.pairs }

// Shards returns the number of DDS machines backing the store.
func (b *Backend) Shards() int { return b.p }

// ShardSizes returns the number of pairs resident on each shard.
func (b *Backend) ShardSizes() []int {
	sizes := make([]int, len(b.sizes))
	copy(sizes, b.sizes)
	return sizes
}

// ShardLoads returns a copy of the per-shard query counters. Loads are
// accounted client-side — the Lemma 2.1 contention ledger belongs to the
// runtime, not the serving fleet.
func (b *Backend) ShardLoads() []int64 {
	loads := make([]int64, len(b.loads))
	for i := range b.loads {
		loads[i] = b.loads[i].Load()
	}
	return loads
}

// MaxShardLoad returns the largest per-shard query count.
func (b *Backend) MaxShardLoad() int64 {
	var max int64
	for i := range b.loads {
		if l := b.loads[i].Load(); l > max {
			max = l
		}
	}
	return max
}

// ResetLoads zeroes the per-shard counters.
func (b *Backend) ResetLoads() {
	for i := range b.loads {
		b.loads[i].Store(0)
	}
}

// Close frees the generation on every reachable server, best-effort: an
// unreachable server evicts it by its per-run cap instead.
func (b *Backend) Close() error {
	b.c.free(b.seq)
	return nil
}

var _ dds.StoreBackend = (*Backend)(nil)
