package rpc

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ampc/internal/dds"
)

// Config tunes the networked backend: the server fleet, replication, and the
// timeouts that keep one slow or dead server a latency problem instead of a
// stall.
type Config struct {
	// Servers lists the shard server addresses. Shards are assigned by
	// contiguous range: server j primarily owns shards
	// [ceil(j*P/N), ceil((j+1)*P/N)) of a P-shard store.
	Servers []string
	// Replication is R, the number of servers holding each shard (primary
	// plus R-1 successors, wrapping). Default 1; clamped to len(Servers).
	Replication int
	// WriteQuorum is the per-shard ack count a publish requires. Default 1:
	// with R=2 a publish survives one dead server, and reads fail over to
	// whichever replica holds the shard.
	WriteQuorum int
	// Timeout bounds each request round trip, dial included. Default 2s.
	Timeout time.Duration
	// DownCooldown is how long a server stays marked down after a transport
	// failure before it is probed again. Default 250ms.
	DownCooldown time.Duration
	// PoolSize caps idle pooled connections per server. Default 8.
	PoolSize int
	// Passes is how many times a read sweeps the replica list before giving
	// up; the first pass skips marked-down servers, later ones force a probe
	// so a recovered server is found. Default 2.
	Passes int

	// now reads the health clock as a monotonic duration. Down marks must
	// not involve the wall clock: an NTP step or VM clock jump would pin a
	// healthy server down for the size of the jump, or erase a cooldown
	// entirely. Defaulted by withDefaults to the process-monotonic clock;
	// tests inject their own to simulate clock behavior.
	now func() time.Duration
}

// monoBase anchors the default health clock: time.Since keeps Go's
// monotonic reading, so the derived durations are immune to wall-clock
// steps.
var monoBase = time.Now()

func monoSince() time.Duration { return time.Since(monoBase) }

func (cfg Config) withDefaults() Config {
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if n := len(cfg.Servers); cfg.Replication > n && n > 0 {
		cfg.Replication = n
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = 1
	}
	if cfg.WriteQuorum > cfg.Replication {
		cfg.WriteQuorum = cfg.Replication
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 250 * time.Millisecond
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 8
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 2
	}
	if cfg.now == nil {
		cfg.now = monoSince
	}
	return cfg
}

// errNoStore mirrors statusNoStore: the replica answered but does not hold
// the generation or shard — retry another replica.
var errNoStore = errors.New("rpc: store not resident on replica")

// remoteError is a terminal server-side failure (malformed request, corrupt
// section): retrying another replica would not help.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "rpc: server: " + e.msg }

// retryable reports whether a request failure may succeed on another
// replica: transport errors (a dial or read timeout included) and missing
// stores do, terminal server errors do not. Whether the run was cancelled is
// the caller's question, asked of the run context, never of the error.
func retryable(err error) bool {
	var re *remoteError
	return !errors.As(err, &re)
}

// conn is one pooled connection: handshake sent, synchronous frames.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte // response payload scratch, reused across requests
}

func (cn *conn) close() { cn.nc.Close() }

// server is the client-side state for one shard server: its connection pool,
// health mark and read queue. downUntil holds the monotonic cfg.now()
// deadline before which the server is skipped (0 = healthy); it turns a dead
// server into one fast failure per cooldown instead of a timeout per
// request. downs counts mark-downs over the server's lifetime, for tests and
// diagnostics. queue holds the reads for the next getBatch frame, which the
// server's one sender drains (sendLoop); mu guards all but the health mark.
type server struct {
	addr      string
	cfg       *Config
	mu        sync.Mutex
	idle      []*conn
	busy      map[*conn]struct{} // connections in an exchange
	closed    bool
	downUntil atomic.Int64
	downs     atomic.Int64

	ready   sync.Cond
	queue   []*batchCall
	started bool // sendLoop is running
	waiting bool // sendLoop waits on ready
}

// batchCall is one caller's share of a coalesced getBatch frame: its keys,
// where their results land, and the outcome. The sender fills in the results
// and then calls wg.Done; the caller owns the call again once wg.Wait
// returns, so calls are pooled and reused.
type batchCall struct {
	seq   uint64
	force bool
	keys  []dds.Key
	idxs  []int
	vals  []dds.Value
	oks   []bool
	retry []int
	err   error
	wg    *sync.WaitGroup
}

func newServer(addr string, cfg *Config) *server {
	s := &server{addr: addr, cfg: cfg, busy: make(map[*conn]struct{})}
	s.ready.L = &s.mu
	return s
}

func (s *server) down() bool {
	return s.cfg.now() < time.Duration(s.downUntil.Load())
}

func (s *server) markDown() {
	s.downs.Add(1)
	s.downUntil.Store(int64(s.cfg.now() + s.cfg.DownCooldown))
}

func (s *server) markUp() {
	s.downUntil.Store(0)
}

// get pops an idle connection or dials a fresh one (handshake buffered, sent
// with the first frame). pooled reports which: a transport failure on a
// pooled connection may just mean the server restarted since the connection
// went idle, while a failure on a fresh dial is evidence against the
// server's health.
func (s *server) get(ctx context.Context) (cn *conn, pooled bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("rpc: client closed")
	}
	if n := len(s.idle); n > 0 {
		cn := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return cn, true, nil
	}
	s.mu.Unlock()
	cn, err = s.dial(ctx)
	return cn, false, err
}

// dial opens a fresh connection with the handshake buffered.
func (s *server) dial(ctx context.Context) (*conn, error) {
	nc, err := (&net.Dialer{Timeout: s.cfg.Timeout}).DialContext(ctx, "tcp", s.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}
	if _, err := cn.bw.WriteString(handshakeMagic); err != nil {
		cn.close()
		return nil, err
	}
	return cn, nil
}

// discardIdle drops every pooled idle connection. Called when a pooled
// connection turns out dead: its poolmates went idle no later than it did,
// so they are stale for the same reason (typically a server restart) and
// reusing them would just repeat the failure.
func (s *server) discardIdle() {
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
}

// put returns a healthy connection to the pool.
func (s *server) put(cn *conn) {
	s.mu.Lock()
	if !s.closed && len(s.idle) < s.cfg.PoolSize {
		s.idle = append(s.idle, cn)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	cn.close()
}

// closePool severs the pool, fails the exchanges in progress at once, and
// stops the sender once the reads already queued have failed on the closed
// pool.
func (s *server) closePool() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cn := range s.idle {
		cn.close()
	}
	for cn := range s.busy {
		cn.close()
	}
	s.idle, s.closed = nil, true
	s.ready.Broadcast()
}

// roundTrip sends one request and decodes its response while the connection
// is held (the payload aliases the connection's scratch buffer). force=false
// fails fast on a marked-down server; force=true probes it anyway.
//
// Transport failures close the connection; whether they also mark the server
// down depends on where the connection came from. A pooled connection that
// dies on its first frame usually means the server restarted while the
// connection sat idle — the server may be perfectly healthy — so the stale
// pool is discarded and the request retried once on a fresh dial before any
// failure counts against health. Failures on fresh connections (the dial
// itself, or the retry) mark the server down. Protocol-level failures
// (statusErr, statusNoStore) never do, and neither does the cancellation of
// ctx, which returns ctx.Err() as soon as ctx is done.
func (s *server) roundTrip(ctx context.Context, op byte, req [][]byte, force bool, decode func(resp []byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !force && s.down() {
		return fmt.Errorf("rpc: server %s marked down: %w", s.addr, dds.ErrBackendUnavailable)
	}
	cn, pooled, err := s.get(ctx)
	transport := err != nil
	if err == nil {
		err, transport = s.exchange(ctx, cn, op, req, decode)
		if transport && pooled && ctx.Err() == nil {
			s.discardIdle()
			if cn, err = s.dial(ctx); err == nil {
				err, transport = s.exchange(ctx, cn, op, req, decode)
			}
		}
	}
	if transport {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		s.markDown()
	}
	return err
}

// exchange runs one frame exchange on cn and decodes the response. It
// returns transport=true when the failure was at the transport layer — the
// connection is then already closed and the caller decides what the failure
// says about the server's health. On success (transport=false) the server is
// marked up, the connection is pooled, and err carries any protocol-level
// outcome. Cancelling ctx expires the connection's deadline, and closePool
// closes the connection, so a blocked exchange fails at once instead of
// waiting out the timeout.
func (s *server) exchange(ctx context.Context, cn *conn, op byte, req [][]byte, decode func(resp []byte) error) (err error, transport bool) {
	fail := func(err error) (error, bool) {
		cn.close()
		return err, true
	}
	s.mu.Lock()
	closed := s.closed
	s.busy[cn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.busy, cn)
		s.mu.Unlock()
	}()
	if closed {
		return fail(fmt.Errorf("rpc: client closed"))
	}
	if err := cn.nc.SetDeadline(time.Now().Add(s.cfg.Timeout)); err != nil {
		return fail(err)
	}
	stop := func() bool { return true } // a context that is never done
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { cn.nc.SetDeadline(time.Unix(1, 0)) })
	}
	defer stop()
	if err := writeFrame(cn.bw, op, req...); err != nil {
		return fail(err)
	}
	if err := cn.bw.Flush(); err != nil {
		return fail(err)
	}
	status, resp, buf, err := readFrame(cn.br, cn.buf)
	cn.buf = buf
	if err != nil {
		return fail(err)
	}
	s.markUp()
	switch status {
	case statusOK:
		err = decode(resp)
	case statusNoStore:
		err = fmt.Errorf("%w: %s: %s", errNoStore, s.addr, resp)
	default:
		err = &remoteError{msg: fmt.Sprintf("%s: %s", s.addr, resp)}
	}
	if stop() { // a cancellation racing the reset would poison a pooled connection
		cn.nc.SetDeadline(time.Time{})
		s.put(cn)
	} else {
		cn.close()
	}
	return err, false
}

// client routes requests for one run across the server fleet. ctx is the
// run's context (Publisher.SetContext); every request returns ctx.Err() once
// it is done.
type client struct {
	ctx     context.Context
	cfg     Config
	run     uint64 // random per-publisher id namespacing generations
	servers []*server
	frames  atomic.Int64   // read-path request frames sent (incl. retries)
	senders sync.WaitGroup // the servers' running sendLoops
}

func newClient(cfg Config) *client {
	cfg = cfg.withDefaults()
	c := &client{ctx: context.Background(), cfg: cfg, run: randomRun()}
	for _, addr := range cfg.Servers {
		c.servers = append(c.servers, newServer(addr, &c.cfg))
	}
	return c
}

func randomRun() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("rpc: reading random run id: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// close severs the pools and returns once the senders have exited.
func (c *client) close() {
	for _, s := range c.servers {
		s.closePool()
	}
	c.senders.Wait()
}

// replica returns the server holding replica `i` of the given shard in a
// p-shard store: the contiguous-range primary plus its i-th successor.
func (c *client) replica(shard, p, i int) *server {
	return c.servers[c.replicaIndex(shard, p, i)]
}

// replicaIndex is replica's server number.
func (c *client) replicaIndex(shard, p, i int) int {
	n := len(c.servers)
	return (shard*n/p + i) % n
}

// primaryRange returns the contiguous shard range [lo, hi) that server j
// primarily owns in a p-shard store.
func primaryRange(j, p, n int) (lo, hi int) {
	return (j*p + n - 1) / n, ((j+1)*p + n - 1) / n
}

// eachReplica runs fn against the shard's replicas until one succeeds, a
// failure is terminal, or the run is cancelled. The first pass skips
// marked-down servers; later passes force a probe. Exhausting the replicas
// returns an error that wraps dds.ErrBackendUnavailable and names the shard
// and the replica addresses.
func (c *client) eachReplica(shard, p int, fn func(s *server, force bool) error) error {
	r := c.cfg.Replication
	var lastErr error
	for pass := 0; pass < c.cfg.Passes; pass++ {
		force := pass > 0
		for i := 0; i < r; i++ {
			s := c.replica(shard, p, i)
			if !force && s.down() {
				continue
			}
			err := fn(s, force)
			if err == nil {
				return nil
			}
			if !retryable(err) || c.ctx.Err() != nil {
				return err
			}
			lastErr = err
		}
	}
	addrs := make([]string, 0, r)
	for i := 0; i < r; i++ {
		addrs = append(addrs, c.replica(shard, p, i).addr)
	}
	return fmt.Errorf("shard %d: all %d replicas failed (%s): %w (last: %v)",
		shard, r, strings.Join(addrs, ", "), dds.ErrBackendUnavailable, lastErr)
}

// reqHeader appends the run|seq addressing prefix.
func (c *client) reqHeader(buf []byte, seq uint64) []byte {
	buf = le.AppendUint64(buf, c.run)
	return le.AppendUint64(buf, seq)
}

// putFrames splits shards (indices into sections) into the runs that one put
// frame each carries: as many sections as fit in frameEager bytes, and a
// larger section alone.
func putFrames(shards []int, sections [][]byte) [][]int {
	var frames [][]int
	for len(shards) > 0 {
		n, size := 0, 20
		for n < len(shards) && (n == 0 || size+sectionHead+len(sections[shards[n]]) <= frameEager) {
			size += sectionHead + len(sections[shards[n]])
			n++
		}
		frames = append(frames, shards[:n])
		shards = shards[n:]
	}
	return frames
}

// putParts returns the payload of one put frame as pieces for writeFrame:
// the run|seq|n header, then per shard (indices into sections) its
// shard|enc|len head and the section itself, a view into the segment.
func (c *client) putParts(seq uint64, shards []int, sections [][]byte, encs []byte) [][]byte {
	head := le.AppendUint32(c.reqHeader(make([]byte, 0, 20+sectionHead*len(shards)), seq), uint32(len(shards)))
	parts := append(make([][]byte, 0, 1+2*len(shards)), head)
	for _, sh := range shards {
		at := len(head)
		head = le.AppendUint32(append(le.AppendUint32(head, uint32(sh)), encs[sh]), uint32(len(sections[sh])))
		parts = append(parts, head[at:], sections[sh])
	}
	return parts
}

// free drops generation seq on every reachable server, best-effort. After
// the run's cancellation it sends nothing: the servers evict the run's
// generations by their per-run cap instead.
func (c *client) free(seq uint64) {
	req := c.reqHeader(make([]byte, 0, 16), seq)
	for _, s := range c.servers {
		if s.down() {
			continue
		}
		s.roundTrip(c.ctx, opFree, [][]byte{req}, false, func([]byte) error { return nil })
	}
}

// getOne reads a single key with replica failover, as a one-key member of
// each tried server's next getBatch frame.
func (c *client) getOne(seq uint64, k dds.Key, shard, p int) (dds.Value, bool, error) {
	sc := readPool.Get().(*readScratch)
	sc.key[0] = k
	sc.shards = append(sc.shards[:0], shard)
	err := c.read(sc, seq, p, sc.key[:], sc.val[:], sc.ok[:])
	v, ok := sc.val[0], sc.ok[0]
	readPool.Put(sc)
	return v, ok, err
}

// readScratch is one read's working set, pooled so that a read allocates
// nothing; groups and calls are indexed by server number.
type readScratch struct {
	key     [1]dds.Key
	val     [1]dds.Value
	ok      [1]bool
	shards  []int
	pending []int
	groups  [][]int
	calls   []batchCall
	wg      sync.WaitGroup
}

var readPool = sync.Pool{New: func() any { return new(readScratch) }}

// getRange reads values [lo, hi) of one key with replica failover, appending
// to dst.
func (c *client) getRange(seq uint64, k dds.Key, lo, hi, shard, p int, dst []dds.Value) ([]dds.Value, error) {
	err := c.eachReplica(shard, p, func(s *server, force bool) error {
		c.frames.Add(1)
		req := c.reqHeader(make([]byte, 0, 16+keyBytes+8), seq)
		req = appendKey(req, k)
		req = le.AppendUint32(req, uint32(lo))
		req = le.AppendUint32(req, uint32(hi))
		base := len(dst)
		return s.roundTrip(c.ctx, opGetRange, [][]byte{req}, force, func(resp []byte) error {
			if len(resp) < 4 {
				return fmt.Errorf("%s: getRange response of %d bytes", s.addr, len(resp))
			}
			n := int(le.Uint32(resp[0:4]))
			if len(resp) != 4+n*valBytes {
				return fmt.Errorf("%s: getRange response of %d bytes for %d values", s.addr, len(resp), n)
			}
			dst = dst[:base]
			for i := 0; i < n; i++ {
				dst = append(dst, decodeValue(resp[4+i*valBytes:]))
			}
			return nil
		})
	})
	return dst, err
}

// count reads one key's pair count with replica failover.
func (c *client) count(seq uint64, k dds.Key, shard, p int) (int, error) {
	var n int
	err := c.eachReplica(shard, p, func(s *server, force bool) error {
		c.frames.Add(1)
		req := c.reqHeader(make([]byte, 0, 16+keyBytes), seq)
		req = appendKey(req, k)
		return s.roundTrip(c.ctx, opCount, [][]byte{req}, force, func(resp []byte) error {
			if len(resp) != 4 {
				return fmt.Errorf("%s: count response of %d bytes", s.addr, len(resp))
			}
			n = int(le.Uint32(resp[0:4]))
			return nil
		})
	})
	return n, err
}

// maxBatchKeys caps one coalesced getBatch frame so that neither its request
// nor its response outgrows maxFrame; a single call above it still travels
// alone.
const maxBatchKeys = (maxFrame - 64) / keyBytes

// maxYields bounds the yields a sender spends letting woken callers queue
// before it collects the next frame.
const maxYields = 8

// read fetches keys into vals/oks, the owning shard of keys[i] in
// sc.shards[i] of a p-shard store: every server's share joins that server's
// next getBatch frame, all at once, and the call waits for them together.
// Keys whose server fails advance to the next replica in lockstep attempts;
// the first pass skips marked-down servers, later ones force a probe, as
// eachReplica does. A key whose read failed reads absent, and read returns
// the first failure.
func (c *client) read(sc *readScratch, seq uint64, p int, keys []dds.Key, vals []dds.Value, oks []bool) error {
	n := len(c.servers)
	if len(sc.groups) < n {
		sc.groups, sc.calls = make([][]int, n), make([]batchCall, n)
	}
	pending := sc.pending[:0]
	for i := range keys {
		pending = append(pending, i)
	}
	var first error
	fail := func(idxs []int, err error) {
		for _, i := range idxs {
			vals[i], oks[i] = dds.Value{}, false
		}
		if first == nil {
			first = err
		}
	}
	r := c.cfg.Replication
	for att := 0; att < r*c.cfg.Passes && len(pending) > 0; att++ {
		force := att >= r
		groups := sc.groups[:n]
		for j := range groups {
			groups[j] = groups[j][:0]
		}
		for _, i := range pending {
			j := c.replicaIndex(sc.shards[i], p, att%r)
			groups[j] = append(groups[j], i)
		}
		for j, idxs := range groups {
			if len(idxs) > 0 {
				call := &sc.calls[j]
				*call = batchCall{seq: seq, force: force, keys: keys, idxs: idxs, vals: vals, oks: oks, retry: call.retry, wg: &sc.wg}
				sc.wg.Add(1)
				c.servers[j].join(c, call)
			}
		}
		sc.wg.Wait()
		pending = pending[:0]
		for j, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			call := &sc.calls[j]
			switch {
			case call.err == nil:
				pending = append(pending, call.retry...)
			case retryable(call.err) && c.ctx.Err() == nil:
				pending = append(pending, idxs...)
			default:
				fail(idxs, call.err)
			}
			// Keep only the retry buffer: a pooled call holds no caller's slices.
			*call = batchCall{retry: call.retry[:0]}
		}
	}
	if len(pending) > 0 {
		sh := sc.shards[pending[0]]
		fail(pending, fmt.Errorf("rpc: read of shard %d (primary %s): all %d replicas exhausted: %w",
			sh, c.replica(sh, p, 0).addr, r, dds.ErrBackendUnavailable))
	}
	sc.pending = pending
	return first
}

// join queues call for s's next getBatch frame, starting the server's
// sender on its first read. A call that finds the sender waiting wakes it
// after one yield, so that the callers running alongside queue in time to
// ride the same frame. A call that must not probe a marked-down server, or
// that arrives after the client closed, fails at once.
func (s *server) join(c *client, call *batchCall) {
	if !call.force && s.down() {
		call.err = fmt.Errorf("rpc: server %s marked down: %w", s.addr, dds.ErrBackendUnavailable)
		call.wg.Done()
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		call.err = fmt.Errorf("rpc: client closed")
		call.wg.Done()
		return
	}
	s.queue = append(s.queue, call)
	if !s.started {
		s.started = true
		c.senders.Add(1)
		go s.sendLoop(c)
	}
	waiting := s.waiting
	s.mu.Unlock()
	if waiting {
		runtime.Gosched()
		s.mu.Lock()
		s.ready.Signal()
		s.mu.Unlock()
	}
}

// sendLoop is s's one sender, group-commit style: it drains the oldest
// queued call and every other call with the same (seq, force), up to
// maxBatchKeys, into one frame, splits the response back to them, wakes
// them, and yields until the queue stops growing (at most maxYields times)
// so that the callers just woken queue their next reads in time to ride the
// next frame. A round of P adaptive machines thus pays about one round trip
// per server per step instead of one per machine. A failed frame fails
// every member, and each fails over on its own. The sender exits once the
// client has closed and the queue is empty; close waits for that.
func (s *server) sendLoop(c *client) {
	defer c.senders.Done()
	var batch []*batchCall
	var req []byte
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.waiting = true
			s.ready.Wait()
			s.waiting = false
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		lead := s.queue[0]
		batch = append(batch[:0], lead)
		n := len(lead.idxs)
		rest := s.queue[:0]
		for _, b := range s.queue[1:] {
			if b.seq == lead.seq && b.force == lead.force && n+len(b.idxs) <= maxBatchKeys {
				batch, n = append(batch, b), n+len(b.idxs)
			} else {
				rest = append(rest, b)
			}
		}
		clear(s.queue[len(rest):])
		s.queue = rest
		s.mu.Unlock()

		req = c.sendBatch(s, batch, n, req)
		for i, b := range batch {
			batch[i] = nil
			b.wg.Done()
		}
		for queued, i := -1, 0; i < maxYields; i++ {
			runtime.Gosched()
			s.mu.Lock()
			n := len(s.queue)
			s.mu.Unlock()
			if n == queued {
				break
			}
			queued = n
		}
	}
}

// sendBatch ships the n keys of a coalesced batch as one getBatch frame,
// built in req (returned for reuse), and records each member's share of the
// outcome.
func (c *client) sendBatch(s *server, batch []*batchCall, n int, req []byte) []byte {
	c.frames.Add(1)
	req = le.AppendUint32(c.reqHeader(req[:0], batch[0].seq), uint32(n))
	for _, b := range batch {
		for _, i := range b.idxs {
			req = appendKey(req, b.keys[i])
		}
	}
	err := s.roundTrip(c.ctx, opGetBatch, [][]byte{req}, batch[0].force, func(resp []byte) error {
		if len(resp) != n*(1+valBytes) {
			return fmt.Errorf("%s: getBatch response of %d bytes for %d keys", s.addr, len(resp), n)
		}
		for _, b := range batch {
			for _, i := range b.idxs {
				rec := resp[:1+valBytes]
				resp = resp[1+valBytes:]
				switch rec[0] {
				case codePresent:
					b.vals[i], b.oks[i] = decodeValue(rec[1:]), true
				case codeAbsent:
					b.vals[i], b.oks[i] = dds.Value{}, false
				default:
					b.retry = append(b.retry, i)
				}
			}
		}
		return nil
	})
	for _, b := range batch {
		b.err = err
	}
	return req
}

// Ping dials addr and exchanges one ping, bounded by timeout. Used by
// `shardd -ping` as a readiness probe.
func Ping(addr string, timeout time.Duration) error {
	cfg := Config{Servers: []string{addr}, Timeout: timeout}.withDefaults()
	s := newServer(addr, &cfg)
	defer s.closePool()
	return s.roundTrip(context.Background(), opPing, nil, true, func([]byte) error { return nil })
}
