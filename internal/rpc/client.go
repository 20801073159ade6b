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

// server is the client-side state for one shard server: its connection pool
// and health mark. downUntil holds the monotonic cfg.now() deadline before
// which the server is skipped (0 = healthy); it turns a dead server into one
// fast failure per cooldown instead of a timeout per request. downs counts
// mark-downs over the server's lifetime, for tests and diagnostics. queue
// holds the getBatch calls waiting for a frame and sending says one is in
// flight (see getBatch); batchMu guards both.
type server struct {
	addr      string
	cfg       *Config
	mu        sync.Mutex
	idle      []*conn
	closed    bool
	downUntil atomic.Int64
	downs     atomic.Int64

	batchMu sync.Mutex
	queue   []*batchCall
	sending bool
}

// batchCall is one caller's share of a coalesced getBatch frame: its keys,
// where their results land, and the outcome. wake delivers true when the
// caller is handed the sender role, false once a sender has filled in its
// results.
type batchCall struct {
	seq   uint64
	force bool
	keys  []dds.Key
	idxs  []int
	vals  []dds.Value
	oks   []bool
	retry []int
	err   error
	wake  chan bool
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

func (s *server) closePool() {
	s.mu.Lock()
	idle := s.idle
	s.idle, s.closed = nil, true
	s.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
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
func (s *server) roundTrip(ctx context.Context, op byte, req []byte, force bool, decode func(resp []byte) error) error {
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
// outcome. Cancelling ctx expires the connection's deadline, so a blocked
// exchange fails at once instead of waiting out the timeout.
func (s *server) exchange(ctx context.Context, cn *conn, op byte, req []byte, decode func(resp []byte) error) (err error, transport bool) {
	fail := func(err error) (error, bool) {
		cn.close()
		return err, true
	}
	if err := cn.nc.SetDeadline(time.Now().Add(s.cfg.Timeout)); err != nil {
		return fail(err)
	}
	stop := context.AfterFunc(ctx, func() { cn.nc.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := writeFrame(cn.bw, op, req); err != nil {
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
	frames  atomic.Int64 // read-path request frames sent (incl. retries)
}

func newClient(cfg Config) *client {
	cfg = cfg.withDefaults()
	c := &client{ctx: context.Background(), cfg: cfg, run: randomRun()}
	for _, addr := range cfg.Servers {
		c.servers = append(c.servers, &server{addr: addr, cfg: &c.cfg})
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

func (c *client) close() {
	for _, s := range c.servers {
		s.closePool()
	}
}

// replica returns the server holding replica `i` of the given shard in a
// p-shard store: the contiguous-range primary plus its i-th successor.
func (c *client) replica(shard, p, i int) *server {
	n := len(c.servers)
	primary := shard * n / p
	return c.servers[(primary+i)%n]
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

// appendPut appends the payload of one put frame: the sections of shards
// (indices into sections) with their encoding bytes.
func (c *client) appendPut(req []byte, seq uint64, shards []int, sections [][]byte, encs []byte) []byte {
	req = le.AppendUint32(c.reqHeader(req, seq), uint32(len(shards)))
	for _, sh := range shards {
		req = le.AppendUint32(req, uint32(sh))
		req = append(req, encs[sh])
		req = le.AppendUint32(req, uint32(len(sections[sh])))
		req = append(req, sections[sh]...)
	}
	return req
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
		s.roundTrip(c.ctx, opFree, req, false, func([]byte) error { return nil })
	}
}

// getOne reads a single key with replica failover, as a one-key member of
// each tried server's coalesced getBatch frame.
func (c *client) getOne(seq uint64, k dds.Key, shard, p int) (dds.Value, bool, error) {
	var val [1]dds.Value
	var ok [1]bool
	err := c.eachReplica(shard, p, func(s *server, force bool) error {
		retry, err := c.getBatch(s, seq, []dds.Key{k}, []int{0}, val[:], ok[:], force)
		if err == nil && len(retry) > 0 {
			err = fmt.Errorf("%w: %s: shard %d", errNoStore, s.addr, shard)
		}
		return err
	})
	return val[0], ok[0], err
}

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
		return s.roundTrip(c.ctx, opGetRange, req, force, func(resp []byte) error {
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
		return s.roundTrip(c.ctx, opCount, req, force, func(resp []byte) error {
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
// alone, as it always did.
const maxBatchKeys = (maxFrame - 64) / keyBytes

// getBatch reads the keys at idxs (indices into keys) from one server,
// filling vals/oks. It returns the indices that must retry on another
// replica (shards not resident there) and the transport/protocol error, if
// any, in which case every index must retry.
//
// Concurrent calls to one server share frames, group-commit style: every
// call queues itself; one that finds no getBatch in flight becomes the
// sender, ships itself and every queued call with the same (seq, force) as
// one frame, splits the response back by offset, and hands the sender role
// to the oldest call still queued. Calls arriving while a frame is out ride
// the next one, so a round of P adaptive machines pays one round trip per
// server per step instead of one per machine. A failed frame fails every
// member, and each member then fails over on its own.
func (c *client) getBatch(s *server, seq uint64, keys []dds.Key, idxs []int, vals []dds.Value, oks []bool, force bool) ([]int, error) {
	call := &batchCall{seq: seq, force: force, keys: keys, idxs: idxs, vals: vals, oks: oks, wake: make(chan bool, 1)}
	s.batchMu.Lock()
	s.queue = append(s.queue, call)
	lead := !s.sending
	s.sending = true
	s.batchMu.Unlock()
	if !lead && !<-call.wake {
		return call.retry, call.err
	}
	// One yield before collecting lets the callers the previous frame just
	// woke queue their next reads in time to ride this frame.
	runtime.Gosched()
	batch, n := []*batchCall{call}, len(idxs)
	s.batchMu.Lock()
	rest := s.queue[:0]
	for _, b := range s.queue {
		switch {
		case b == call:
		case b.seq == seq && b.force == force && n+len(b.idxs) <= maxBatchKeys:
			batch, n = append(batch, b), n+len(b.idxs)
		default:
			rest = append(rest, b)
		}
	}
	clear(s.queue[len(rest):])
	s.queue = rest
	s.batchMu.Unlock()

	c.sendBatch(s, batch, n)

	var next *batchCall
	s.batchMu.Lock()
	if len(s.queue) > 0 {
		next = s.queue[0]
	} else {
		s.sending = false
	}
	s.batchMu.Unlock()
	if next != nil {
		next.wake <- true
	}
	for _, b := range batch[1:] {
		b.wake <- false
	}
	return call.retry, call.err
}

// sendBatch ships the n keys of a coalesced batch as one getBatch frame and
// records each member's share of the outcome.
func (c *client) sendBatch(s *server, batch []*batchCall, n int) {
	c.frames.Add(1)
	req := c.reqHeader(make([]byte, 0, 20+n*keyBytes), batch[0].seq)
	req = le.AppendUint32(req, uint32(n))
	for _, b := range batch {
		for _, i := range b.idxs {
			req = appendKey(req, b.keys[i])
		}
	}
	err := s.roundTrip(c.ctx, opGetBatch, req, batch[0].force, func(resp []byte) error {
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
}

// Ping dials addr and exchanges one ping, bounded by timeout. Used by
// `shardd -ping` as a readiness probe.
func Ping(addr string, timeout time.Duration) error {
	cfg := Config{Servers: []string{addr}, Timeout: timeout}.withDefaults()
	s := &server{addr: addr, cfg: &cfg}
	defer s.closePool()
	return s.roundTrip(context.Background(), opPing, nil, true, func([]byte) error { return nil })
}
