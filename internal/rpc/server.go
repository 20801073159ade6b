package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ampc/internal/dds"
)

// ServerConfig tunes one shard server.
type ServerConfig struct {
	// Addr is the TCP listen address; ":0" picks a free port.
	Addr string
	// MaxGensPerRun caps the store generations resident per run; the oldest
	// is evicted when a put exceeds it. Clients free retired generations
	// explicitly, so the cap is a backstop against leaky runs. Default 6.
	MaxGensPerRun int
	// MaxRuns caps distinct runs resident at once; the least recently
	// touched run is evicted entirely. Default 64.
	MaxRuns int
	// FaultLatency injects a fixed delay before every response — the "one
	// slow server" axis of the fault harness.
	FaultLatency time.Duration
	// FaultDrop is the probability in [0, 1] that a request's connection is
	// dropped instead of answered — the "flaky server" axis.
	FaultDrop float64
	// FaultSeed seeds the drop decision stream (0 means 1).
	FaultSeed int64
	// Logf, when set, receives one line per notable event (accepted store,
	// eviction, protocol error).
	Logf func(format string, args ...any)
}

// genKey addresses one resident store generation.
type genKey struct {
	run uint64
	seq uint64
}

// generation holds the opened sections of one (run, seq) resident here.
type generation struct {
	shards map[int]*dds.ShardReader
	salt   uint64
	count  int // total shard count of the store
}

// runState tracks the generations of one run, for per-run eviction. touch
// is atomic because reads bump it under the RLock.
type runState struct {
	seqs  []uint64      // resident, ascending; mu held
	touch atomic.Uint64 // server-wide LRU clock at last access
}

// Server is one shard server: it owns whatever store sections publishers put
// to it and answers batched point reads over them. It is oblivious to the
// shard→server assignment — the client routes; the server only refuses keys
// whose shard is not resident (codeNoShard) so misrouting is loud.
type Server struct {
	cfg ServerConfig
	lis net.Listener

	mu    sync.RWMutex
	gens  map[genKey]*generation
	runs  map[uint64]*runState
	clock atomic.Uint64 // LRU ticks

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	faultMu sync.Mutex
	faultR  *rand.Rand

	// paused, while non-nil, holds a channel every request handler blocks
	// on before answering — the in-process analogue of SIGSTOPping a shardd
	// process (connections stay open, requests go unanswered until Resume
	// closes the channel or Close shuts the server down).
	pauseMu sync.Mutex
	paused  atomic.Pointer[chan struct{}]

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewServer listens on cfg.Addr and starts serving. Close stops it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.MaxGensPerRun <= 0 {
		cfg.MaxGensPerRun = 6
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 64
	}
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = 1
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		lis:    lis,
		gens:   make(map[genKey]*generation),
		runs:   make(map[uint64]*runState),
		conns:  make(map[net.Conn]struct{}),
		faultR: rand.New(rand.NewSource(seed)),
		done:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (resolving ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, severs open connections and waits for handlers.
// Paused handlers are released so Close never deadlocks on a straggler.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	err := s.lis.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// Pause makes the server hold every subsequent request unanswered while
// keeping its connections open — the in-process equivalent of sending a
// shardd process SIGSTOP. Clients see timeouts, mark the server down and
// fail over to replicas; the held requests complete after Resume. Pausing
// an already-paused server is a no-op.
func (s *Server) Pause() {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	if s.paused.Load() == nil {
		ch := make(chan struct{})
		s.paused.Store(&ch)
	}
}

// Resume releases a paused server's held requests. Resuming a running
// server is a no-op.
func (s *Server) Resume() {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	if p := s.paused.Load(); p != nil {
		close(*p)
		s.paused.Store(nil)
	}
}

// pauseGate blocks while the server is paused; it returns false when the
// server shut down instead of resuming.
func (s *Server) pauseGate() bool {
	if p := s.paused.Load(); p != nil {
		select {
		case <-*p:
		case <-s.done:
			return false
		}
	}
	return true
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// dropRequest consults the fault-injection stream for this request.
func (s *Server) dropRequest() bool {
	if s.cfg.FaultDrop <= 0 {
		return false
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.faultR.Float64() < s.cfg.FaultDrop
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var magic [len(handshakeMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != handshakeMagic {
		return
	}
	var reqBuf, respBuf []byte
	for {
		op, payload, buf, err := readFrame(br, reqBuf)
		if err != nil {
			return
		}
		reqBuf = buf
		if !s.pauseGate() {
			return
		}
		if s.cfg.FaultLatency > 0 {
			time.Sleep(s.cfg.FaultLatency)
		}
		if s.dropRequest() {
			return
		}
		status := statusOK
		respBuf, err = s.handle(op, payload, respBuf[:0])
		if err != nil {
			var nr noStoreError
			if errors.As(err, &nr) {
				status = statusNoStore
			} else {
				status = statusErr
				s.logf("shardd: %v", err)
			}
			respBuf = append(respBuf[:0], err.Error()...)
		}
		if err := writeFrame(bw, status, respBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// noStoreError marks "generation or shard not resident" failures, which map
// to statusNoStore so clients retry another replica instead of giving up.
type noStoreError struct{ msg string }

func (e noStoreError) Error() string { return e.msg }

// handle dispatches one request, appending the response payload to resp.
func (s *Server) handle(op byte, req, resp []byte) ([]byte, error) {
	switch op {
	case opPing:
		return resp, nil
	case opPut:
		return resp, s.handlePut(req)
	case opGetBatch:
		return s.handleGetBatch(req, resp)
	case opGetRange:
		return s.handleGetRange(req, resp)
	case opCount:
		return s.handleCount(req, resp)
	case opFree:
		return resp, s.handleFree(req)
	default:
		return resp, fmt.Errorf("rpc: unknown op %d", op)
	}
}

// handlePut opens every section of a put frame before taking s.mu, then
// installs them together: a frame with any bad section installs none. Each
// reader owns its memory: dds.OpenSection decodes every section out of the
// connection's reused frame buffer into a fresh in-memory shard.
func (s *Server) handlePut(req []byte) error {
	if len(req) < 20 {
		return fmt.Errorf("rpc: put: short frame (%d bytes)", len(req))
	}
	key := genKey{run: le.Uint64(req[0:8]), seq: le.Uint64(req[8:16])}
	n := int(le.Uint32(req[16:20]))
	rest := req[20:]
	if n == 0 || n > len(rest)/sectionHead {
		return fmt.Errorf("rpc: put: %d sections in %d bytes", n, len(rest))
	}
	frame := &generation{shards: make(map[int]*dds.ShardReader)}
	for i := 0; i < n; i++ {
		if len(rest) < sectionHead || uint64(le.Uint32(rest[5:9])) > uint64(len(rest)-sectionHead) {
			return fmt.Errorf("rpc: put: section %d of %d cut short", i, n)
		}
		shard, enc, length := int(le.Uint32(rest[0:4])), rest[4], int(le.Uint32(rest[5:9]))
		rest = rest[sectionHead:]
		r, err := dds.OpenSection(rest[:length], enc, shard)
		if err != nil {
			return fmt.Errorf("rpc: put shard %d of store %d: %w", shard, key.seq, err)
		}
		if i == 0 {
			frame.salt, frame.count = r.Salt(), r.ShardCount()
		} else if r.Salt() != frame.salt || r.ShardCount() != frame.count {
			return fmt.Errorf("rpc: put shard %d of store %d: salt or shard count disagrees with the frame", shard, key.seq)
		}
		frame.shards[shard] = r
		rest = rest[length:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("rpc: put: %d trailing bytes", len(rest))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gens[key]
	if g == nil {
		s.gens[key] = frame
		s.trackGen(key)
		return nil
	}
	if g.salt != frame.salt || g.count != frame.count {
		return fmt.Errorf("rpc: put to store %d: salt or shard count disagrees with resident sections", key.seq)
	}
	maps.Copy(g.shards, frame.shards)
	return nil
}

// trackGen records a newly resident generation and applies the per-run and
// per-server eviction caps; s.mu held.
func (s *Server) trackGen(key genKey) {
	rs := s.runs[key.run]
	if rs == nil {
		rs = &runState{}
		s.runs[key.run] = rs
		if len(s.runs) > s.cfg.MaxRuns {
			s.evictColdestRun(key.run)
		}
	}
	rs.seqs = append(rs.seqs, key.seq)
	rs.touch.Store(s.clock.Add(1))
	if len(rs.seqs) > s.cfg.MaxGensPerRun {
		old := rs.seqs[0]
		rs.seqs = rs.seqs[1:]
		delete(s.gens, genKey{run: key.run, seq: old})
		s.logf("shardd: evicted store %d of run %x (per-run cap %d)", old, key.run, s.cfg.MaxGensPerRun)
	}
}

// evictColdestRun drops the least recently touched run other than keep;
// s.mu held.
func (s *Server) evictColdestRun(keep uint64) {
	var victim uint64
	var best uint64 = ^uint64(0)
	for run, rs := range s.runs {
		if t := rs.touch.Load(); run != keep && t < best {
			victim, best = run, t
		}
	}
	if best == ^uint64(0) {
		return
	}
	for _, seq := range s.runs[victim].seqs {
		delete(s.gens, genKey{run: victim, seq: seq})
	}
	delete(s.runs, victim)
	s.logf("shardd: evicted run %x (run cap %d)", victim, s.cfg.MaxRuns)
}

// lookup returns the resident generation, bumping the run's LRU clock.
func (s *Server) lookup(run, seq uint64) (*generation, error) {
	s.mu.RLock()
	g := s.gens[genKey{run: run, seq: seq}]
	if rs := s.runs[run]; rs != nil {
		rs.touch.Store(s.clock.Add(1))
	}
	s.mu.RUnlock()
	if g == nil {
		return nil, noStoreError{msg: fmt.Sprintf("store %d not resident", seq)}
	}
	return g, nil
}

// reader returns the resident shard owning key k in generation g, or nil
// when that shard is not resident on this server.
func (g *generation) reader(k dds.Key) *dds.ShardReader {
	return g.shards[dds.ShardOf(k, g.salt, g.count)]
}

func (s *Server) handleGetBatch(req, resp []byte) ([]byte, error) {
	if len(req) < 20 {
		return resp, fmt.Errorf("rpc: getBatch: short frame (%d bytes)", len(req))
	}
	g, err := s.lookup(le.Uint64(req[0:8]), le.Uint64(req[8:16]))
	if err != nil {
		return resp, err
	}
	n := int(le.Uint32(req[16:20]))
	if want := 20 + n*keyBytes; len(req) != want {
		return resp, fmt.Errorf("rpc: getBatch: %d bytes for %d keys, want %d", len(req), n, want)
	}
	for i := 0; i < n; i++ {
		k := decodeKey(req[20+i*keyBytes:])
		r := g.reader(k)
		if r == nil {
			resp = append(resp, codeNoShard)
			resp = append(resp, make([]byte, valBytes)...)
			continue
		}
		v, ok := r.Get(k)
		if !ok {
			resp = append(resp, codeAbsent)
			resp = append(resp, make([]byte, valBytes)...)
			continue
		}
		resp = append(resp, codePresent)
		resp = appendValue(resp, v)
	}
	return resp, nil
}

func (s *Server) handleGetRange(req, resp []byte) ([]byte, error) {
	if len(req) != 16+keyBytes+8 {
		return resp, fmt.Errorf("rpc: getRange: frame of %d bytes", len(req))
	}
	g, err := s.lookup(le.Uint64(req[0:8]), le.Uint64(req[8:16]))
	if err != nil {
		return resp, err
	}
	k := decodeKey(req[16:])
	lo := int(int32(le.Uint32(req[16+keyBytes:])))
	hi := int(int32(le.Uint32(req[16+keyBytes+4:])))
	r := g.reader(k)
	if r == nil {
		return resp, noStoreError{msg: fmt.Sprintf("shard %d not resident", dds.ShardOf(k, g.salt, g.count))}
	}
	vals := r.GetRange(k, lo, hi, nil)
	resp = le.AppendUint32(resp, uint32(len(vals)))
	for _, v := range vals {
		resp = appendValue(resp, v)
	}
	return resp, nil
}

func (s *Server) handleCount(req, resp []byte) ([]byte, error) {
	if len(req) != 16+keyBytes {
		return resp, fmt.Errorf("rpc: count: frame of %d bytes", len(req))
	}
	g, err := s.lookup(le.Uint64(req[0:8]), le.Uint64(req[8:16]))
	if err != nil {
		return resp, err
	}
	k := decodeKey(req[16:])
	r := g.reader(k)
	if r == nil {
		return resp, noStoreError{msg: fmt.Sprintf("shard %d not resident", dds.ShardOf(k, g.salt, g.count))}
	}
	return le.AppendUint32(resp, uint32(r.Count(k))), nil
}

func (s *Server) handleFree(req []byte) error {
	if len(req) != 16 {
		return fmt.Errorf("rpc: free: frame of %d bytes", len(req))
	}
	key := genKey{run: le.Uint64(req[0:8]), seq: le.Uint64(req[8:16])}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.gens, key)
	if rs := s.runs[key.run]; rs != nil {
		for i, q := range rs.seqs {
			if q == key.seq {
				rs.seqs = append(rs.seqs[:i], rs.seqs[i+1:]...)
				break
			}
		}
		if len(rs.seqs) == 0 {
			delete(s.runs, key.run)
		}
	}
	return nil
}
