package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ampc/internal/dds"
)

// errPublishCancelled reports a write-behind upload aborted before its
// quorum was reached (context cancellation or publisher Close).
var errPublishCancelled = errors.New("rpc: store publish cancelled")

// Publisher ships each round's frozen store to the shard servers. It
// mirrors the file backend's write-behind pendingStore pattern: Publish
// encodes the store on a background goroutine into the same packed sections
// the file backend writes to disk, and uploads each to its R owning servers
// in a few put frames per server, while the returned backend serves reads
// from the still-in-memory store; Barrier joins the upload, verifies the
// per-shard write quorum, swaps reads onto the remote fleet and recycles the
// in-memory arrays.
//
// Unlike the file publisher, Barrier runs before the next round's execute
// phase (BarrierBeforeExecute): a round's adaptive reads must hit D_{i-1}
// where it actually lives — on the servers — or the model's defining remote
// cost would never be paid. Driver-side reads between rounds still hit the
// in-memory store for free.
type Publisher struct {
	cfg Config
	c   *client

	mu       sync.Mutex
	arena    *dds.Arena
	ctx      context.Context
	buf      []byte   // reused segment serialization buffer
	inflight *pending // the write-behind publish not yet joined

	closed    chan struct{}
	closeOnce sync.Once
}

// NewPublisher returns a publisher shipping stores to cfg.Servers. Nothing
// is dialed until the first Publish, so construction never fails.
func NewPublisher(cfg Config) *Publisher {
	return &Publisher{cfg: cfg.withDefaults(), c: newClient(cfg), closed: make(chan struct{})}
}

// SetArena gives the publisher an arena to recycle swapped-out in-memory
// stores into. Call before the first Publish.
func (p *Publisher) SetArena(a *dds.Arena) { p.arena = a }

// SetContext attaches a cancellation context: an in-flight upload aborts
// between put frames once ctx is done. Call before the first Publish.
func (p *Publisher) SetContext(ctx context.Context) { p.ctx = ctx }

// InFlight reports whether an upload has not yet been joined.
func (p *Publisher) InFlight() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight != nil
}

// BarrierBeforeExecute asks the runtime to join the publish barrier before
// the next round's execute phase, so the round's adaptive reads go to the
// shard servers instead of the in-memory copy retained during the upload.
func (p *Publisher) BarrierBeforeExecute() bool { return true }

// cancelled reports why an in-flight upload must abort, or nil.
func (p *Publisher) cancelled() error {
	select {
	case <-p.closed:
		return errPublishCancelled
	default:
	}
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Publish installs store seq: it returns immediately with a backend reading
// the in-memory store while the sections upload in the background. Publish
// takes ownership of s; after Barrier swaps, s's arrays are recycled.
func (p *Publisher) Publish(seq int, s *dds.Store) (dds.StoreBackend, error) {
	if err := p.Barrier(); err != nil {
		return nil, err
	}
	if len(p.cfg.Servers) == 0 {
		return nil, fmt.Errorf("rpc: no shard servers configured")
	}
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		return nil, errPublishCancelled
	default:
	}
	ps := &pending{
		pub:    p,
		seq:    uint64(seq),
		mem:    s,
		remote: newBackend(p.c, uint64(seq), s),
		done:   make(chan struct{}),
	}
	ps.store(s)
	buf := p.buf
	p.buf, p.inflight = nil, ps
	p.mu.Unlock()
	go ps.run(buf)
	return ps, nil
}

// upload encodes s into packed sections and sends each to its R owners, one
// goroutine per server so a slow server delays only its own shards, and
// each server's sections in as few put frames as frameEager allows. It
// returns nil once every shard reached its write quorum.
func (p *Publisher) upload(seq uint64, s *dds.Store, buf []byte) ([]byte, error) {
	buf, sections, encs := dds.EncodeSections(buf, s)
	shardCount := len(sections)
	n := len(p.c.servers)
	r := p.cfg.Replication
	perServer := make([][]int, n)
	for sh := 0; sh < shardCount; sh++ {
		primary := sh * n / shardCount
		for i := 0; i < r; i++ {
			j := (primary + i) % n
			perServer[j] = append(perServer[j], sh)
		}
	}
	acks := make([]atomic.Int32, shardCount)
	var wg sync.WaitGroup
	for j := range p.c.servers {
		if len(perServer[j]) == 0 {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			s := p.c.servers[j]
			var req []byte
			for _, frame := range putFrames(perServer[j], sections) {
				if p.cancelled() != nil {
					return
				}
				// One failed put marks the server down and abandons its
				// remaining frames this publish: the replicas cover them, and
				// retrying a dead server frame after frame would stall the
				// barrier.
				req = p.c.appendPut(req[:0], seq, frame, sections, encs)
				if err := s.roundTrip(opPut, req, true, func([]byte) error { return nil }); err != nil {
					return
				}
				for _, sh := range frame {
					acks[sh].Add(1)
				}
			}
		}(j)
	}
	wg.Wait()
	if err := p.cancelled(); err != nil {
		return buf, err
	}
	w := p.cfg.WriteQuorum
	for sh := range acks {
		if int(acks[sh].Load()) < w {
			addrs := make([]string, 0, r)
			for i := 0; i < r; i++ {
				addrs = append(addrs, p.c.replica(sh, shardCount, i).addr)
			}
			return buf, fmt.Errorf("publish of store %d: shard %d got %d of %d required acks (replicas %s): %w",
				seq, sh, acks[sh].Load(), w, strings.Join(addrs, ", "), dds.ErrBackendUnavailable)
		}
	}
	return buf, nil
}

// Barrier joins the in-flight upload: it blocks until every shard reached
// its write quorum, swaps the published backend's reads to the servers and
// recycles the in-memory store. An upload failure is returned once, and the
// backend keeps serving from memory so reads stay correct while the error
// surfaces.
func (p *Publisher) Barrier() error {
	p.mu.Lock()
	ps := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if ps == nil {
		return nil
	}
	<-ps.done
	if ps.err != nil {
		return ps.err
	}
	ps.swap(p.arena)
	return nil
}

// Close aborts any in-flight upload and severs the connection pools.
// Backends already published must be closed separately (the runtime does).
func (p *Publisher) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	p.mu.Lock()
	ps := p.inflight
	p.inflight = nil
	p.mu.Unlock()
	if ps != nil {
		<-ps.done
	}
	p.c.close()
	return nil
}

// pending is the backend returned by a write-behind Publish. Reads are
// served by the frozen in-memory store while the sections upload; once
// Barrier observes the write quorum, reads swap atomically to the shard
// servers and the in-memory arrays are recycled.
type pending struct {
	inner  atomic.Pointer[dds.StoreBackend]
	mem    *dds.Store // retained until the swap
	remote *Backend
	pub    *Publisher
	seq    uint64
	done   chan struct{} // closed when the upload finishes
	err    error         // upload outcome; read only after done
}

// run is the background uploader: one publish, one goroutine, joined by
// Barrier (or Publish/Close) through ps.done.
func (ps *pending) run(buf []byte) {
	buf, err := ps.pub.upload(ps.seq, ps.mem, buf)
	ps.err = err
	p := ps.pub
	p.mu.Lock()
	p.buf = buf // return the serialization buffer for the next publish
	p.mu.Unlock()
	close(ps.done)
}

func (ps *pending) store(b dds.StoreBackend)  { ps.inner.Store(&b) }
func (ps *pending) backend() dds.StoreBackend { return *ps.inner.Load() }

// swap redirects reads to the shard servers and hands the in-memory store
// to the arena.
func (ps *pending) swap(a *dds.Arena) {
	ps.store(ps.remote)
	a.Recycle(ps.mem)
	ps.mem = nil
}

// Close retires the backend: it joins the upload and frees the generation
// on the servers, best-effort — an unreachable server evicts by cap.
func (ps *pending) Close() error {
	<-ps.done
	ps.mem = nil
	ps.pub.c.free(ps.seq)
	return nil
}

// ReadErr surfaces a latched remote read failure once reads have swapped to
// the servers; before the swap reads are in-process and cannot fail.
func (ps *pending) ReadErr() error { return ps.remote.ReadErr() }

// GetMany batches through the remote backend after the swap; before it, the
// in-memory store answers key by key (dds.Store has no batch surface, and
// in-process reads gain nothing from one).
func (ps *pending) GetMany(keys []dds.Key, vals []dds.Value, oks []bool) {
	b := ps.backend()
	if bg, ok := b.(dds.BatchGetter); ok {
		bg.GetMany(keys, vals, oks)
		return
	}
	for i, k := range keys {
		vals[i], oks[i] = b.Get(k)
	}
}

// StoreBackend delegation: every read goes through the current inner
// backend (in-memory before the swap, the server fleet after).

func (ps *pending) Get(k dds.Key) (dds.Value, bool) { return ps.backend().Get(k) }
func (ps *pending) GetIndexed(k dds.Key, i int) (dds.Value, bool) {
	return ps.backend().GetIndexed(k, i)
}
func (ps *pending) GetRange(k dds.Key, lo, hi int, dst []dds.Value) []dds.Value {
	return ps.backend().GetRange(k, lo, hi, dst)
}

// Salt returns the placement salt, identical on both sides of the swap.
func (ps *pending) Salt() uint64 { return ps.remote.Salt() }

// ReadFrames reports the client's read-path frame counter; reads before the
// swap are in-process and send none.
func (ps *pending) ReadFrames() int64 { return ps.remote.ReadFrames() }

func (ps *pending) Count(k dds.Key) int { return ps.backend().Count(k) }
func (ps *pending) Len() int            { return ps.backend().Len() }
func (ps *pending) Shards() int         { return ps.backend().Shards() }
func (ps *pending) ShardSizes() []int   { return ps.backend().ShardSizes() }
func (ps *pending) ShardLoads() []int64 { return ps.backend().ShardLoads() }
func (ps *pending) MaxShardLoad() int64 { return ps.backend().MaxShardLoad() }
func (ps *pending) ResetLoads()         { ps.backend().ResetLoads() }

var (
	_ dds.StoreBackend = (*pending)(nil)
	_ dds.BatchGetter  = (*pending)(nil)
	_ dds.Salter       = (*pending)(nil)
	_ dds.Publisher    = (*Publisher)(nil)
)
