package rpc

import (
	"fmt"
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
type Backend struct {
	c     *client
	seq   uint64
	p     int
	salt  uint64
	pairs int
	sizes []int
	loads []atomic.Int64

	// reads single-flights key fetches for this generation, one locked map
	// per shard. The generation is immutable, so the first fetch of a key is
	// authoritative; concurrent and later readers of the same key wait on
	// (or find) its flight instead of paying their own request frame. Shard
	// loads are still counted per arriving read — the Lemma 2.1 ledger
	// charges the query whether or not a frame travels.
	reads []flights

	errMu sync.Mutex
	err   error
}

// flights is one shard's share of the single-flight table.
type flights struct {
	mu sync.Mutex
	m  map[dds.Key]*flight
}

// flight is one single-flighted key fetch: done closes once val/ok are
// final (a key whose replicas are all exhausted resolves absent, with the
// failure latched by the fetching reader).
type flight struct {
	done chan struct{}
	val  dds.Value
	ok   bool
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
		reads: make([]flights, s.Shards()),
	}
}

// claim returns k's flight and whether it is fresh — installed just now by
// this call, which must then resolve it.
func (b *Backend) claim(shard int, k dds.Key, fresh *flight) (*flight, bool) {
	fs := &b.reads[shard]
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.m[k]; f != nil {
		return f, false
	}
	if fs.m == nil {
		fs.m = make(map[dds.Key]*flight)
	}
	fs.m[k] = fresh
	return fresh, true
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

// Get returns the value stored under k (index 0 of a duplicated key). The
// fetch is single-flighted: whoever claims the key's flight pays the request
// frame, everyone else waits on the result.
func (b *Backend) Get(k dds.Key) (dds.Value, bool) {
	shard := dds.ShardOf(k, b.salt, b.p)
	b.loads[shard].Add(1)
	f, fresh := b.claim(shard, k, &flight{done: make(chan struct{})})
	if !fresh {
		<-f.done
		return f.val, f.ok
	}
	v, ok, err := b.c.getOne(b.seq, k, shard, b.p)
	if err != nil {
		b.fail(err)
		v, ok = dds.Value{}, false
	}
	f.val, f.ok = v, ok
	close(f.done)
	return v, ok
}

// GetIndexed returns the i-th (0-based) value stored under k.
func (b *Backend) GetIndexed(k dds.Key, i int) (dds.Value, bool) {
	if i < 0 {
		return dds.Value{}, false
	}
	shard := dds.ShardOf(k, b.salt, b.p)
	b.loads[shard].Add(1)
	vals, err := b.c.getRange(b.seq, k, i, i+1, shard, b.p, nil)
	if err != nil {
		b.fail(err)
		return dds.Value{}, false
	}
	if len(vals) == 0 {
		return dds.Value{}, false
	}
	return vals[0], true
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

// GetMany implements dds.BatchGetter: the key set is grouped by owning
// server and sent as one request frame per server, in parallel. Keys whose
// server fails advance to the next replica in lockstep rounds; a key whose
// replicas are all exhausted reads as absent and latches the failure.
//
// Fetches are single-flighted per generation: only the keys this call claims
// first go into request frames; keys another machine is fetching (or already
// fetched) are filled from their flight after the owned fetches complete, so
// N machines wanting the same hot key cost one frame entry instead of N.
func (b *Backend) GetMany(keys []dds.Key, vals []dds.Value, oks []bool) {
	n := len(keys)
	if n == 0 {
		return
	}
	shards := make([]int, n)
	for i, k := range keys {
		shards[i] = dds.ShardOf(k, b.salt, b.p)
		b.loads[shards[i]].Add(1)
	}
	// The flights this call claims resolve together, so they share one
	// allocation and one done channel.
	done := make(chan struct{})
	fresh := make([]flight, n)
	flights := make([]*flight, n)
	pending := make([]int, 0, n) // indices whose fetch this call owns
	var waits []int              // indices served by another caller's flight
	for i, k := range keys {
		fresh[i].done = done
		f, mine := b.claim(shards[i], k, &fresh[i])
		flights[i] = f
		if mine {
			pending = append(pending, i)
		} else {
			waits = append(waits, i)
		}
	}
	owned := append([]int(nil), pending...)
	r := b.c.cfg.Replication
	maxAttempts := r * b.c.cfg.Passes
	for att := 0; att < maxAttempts && len(pending) > 0; att++ {
		// Later sweeps force a probe of marked-down servers, mirroring
		// eachReplica's recovery behavior.
		force := att >= r
		groups := make(map[*server][]int)
		for _, i := range pending {
			s := b.c.replica(shards[i], b.p, att%r)
			groups[s] = append(groups[s], i)
		}
		type job struct {
			s           *server
			idxs, retry []int
			err         error
		}
		jobs := make([]job, 0, len(groups))
		for s, idxs := range groups {
			jobs = append(jobs, job{s: s, idxs: idxs})
		}
		// Every server's share joins that server's next frame at once; this
		// goroutine carries the first.
		fetch := func(j *job) { j.retry, j.err = b.c.getBatch(j.s, b.seq, keys, j.idxs, vals, oks, force) }
		var wg sync.WaitGroup
		for j := 1; j < len(jobs); j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fetch(&jobs[j])
			}()
		}
		fetch(&jobs[0])
		wg.Wait()
		pending = pending[:0]
		for _, j := range jobs {
			switch {
			case j.err == nil:
				pending = append(pending, j.retry...)
			case retryable(j.err):
				pending = append(pending, j.idxs...)
			default:
				for _, i := range j.idxs {
					vals[i], oks[i] = dds.Value{}, false
				}
				b.fail(j.err)
			}
		}
	}
	for _, i := range pending {
		vals[i], oks[i] = dds.Value{}, false
		b.fail(fmt.Errorf("rpc: read of shard %d (primary %s): all %d replicas exhausted: %w",
			shards[i], b.c.replica(shards[i], b.p, 0).addr, r, dds.ErrBackendUnavailable))
	}
	// Every owned index now holds its final result (fetched, terminal-error
	// absent, or replica-exhausted absent): resolve the flights, then fill
	// the indices waiting on other callers. Own flights close first, so a
	// duplicated key inside one call never deadlocks on itself.
	for _, i := range owned {
		flights[i].val, flights[i].ok = vals[i], oks[i]
	}
	close(done)
	for _, i := range waits {
		f := flights[i]
		<-f.done
		vals[i], oks[i] = f.val, f.ok
	}
}

// Salt implements dds.Salter: the placement salt captured from the frozen
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

var (
	_ dds.StoreBackend = (*Backend)(nil)
	_ dds.BatchGetter  = (*Backend)(nil)
	_ dds.Salter       = (*Backend)(nil)
)
