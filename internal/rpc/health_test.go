package rpc

import (
	"sync/atomic"
	"testing"
	"time"

	"ampc/internal/dds"
)

// TestDownCooldownMonotonicClock drives the injectable health clock through
// the scenario the monotonic base exists for: wall-clock steps (NTP, VM
// migration) move time.Now() arbitrarily in either direction, but the
// monotonic reading only ever advances. Because down/markDown consult only
// cfg.now, a simulated wall jump does not appear anywhere in this test —
// cooldown expiry must be a function of monotonic elapsed time alone.
func TestDownCooldownMonotonicClock(t *testing.T) {
	var mono atomic.Int64 // simulated monotonic clock, in nanoseconds
	cfg := Config{Servers: []string{"127.0.0.1:9"}, DownCooldown: 250 * time.Millisecond}.withDefaults()
	cfg.now = func() time.Duration { return time.Duration(mono.Load()) }
	s := newServer(cfg.Servers[0], &cfg)

	if s.down() {
		t.Fatal("fresh server marked down")
	}

	// Mark down at t=10ms. Under the old wall-clock deadline, a backwards
	// wall step here would extend the cooldown by the jump size and a
	// forwards step would erase it; the monotonic clock admits neither.
	mono.Store(int64(10 * time.Millisecond))
	s.markDown()
	if !s.down() {
		t.Fatal("server not down immediately after markDown")
	}
	mono.Store(int64(259 * time.Millisecond))
	if !s.down() {
		t.Fatal("server recovered 1ms before the cooldown elapsed")
	}
	mono.Store(int64(260 * time.Millisecond))
	if s.down() {
		t.Fatal("server still down after the cooldown elapsed")
	}

	// A fresh markDown restarts the cooldown relative to the newest mark.
	s.markDown()
	mono.Store(int64((260 + 249) * int64(time.Millisecond)))
	if !s.down() {
		t.Fatal("second cooldown expired early")
	}
	mono.Store(int64((260 + 250) * int64(time.Millisecond)))
	if s.down() {
		t.Fatal("second cooldown never expired")
	}

	// markUp clears the mark unconditionally.
	s.markDown()
	s.markUp()
	if s.down() {
		t.Fatal("markUp did not clear the down mark")
	}
}

// TestDownDeadlineUsesMonotonicBase guards the default clock against a
// reintroduction of the wall-epoch deadline: a UnixNano-based downUntil is
// ~1.7e18ns, while a process-monotonic one is bounded by process uptime
// plus the cooldown.
func TestDownDeadlineUsesMonotonicBase(t *testing.T) {
	cfg := Config{Servers: []string{"127.0.0.1:9"}}.withDefaults()
	s := newServer(cfg.Servers[0], &cfg)
	s.markDown()
	if !s.down() {
		t.Fatal("server not down after markDown")
	}
	if d := time.Duration(s.downUntil.Load()); d > 365*24*time.Hour {
		t.Fatalf("downUntil = %v: wall-epoch scale, not process-monotonic", d)
	}
}

// relaunch rebinds a server on the exact address a previous one just
// released, retrying briefly in case the OS has not finished tearing the
// old listener down.
func relaunch(t *testing.T, addr string) *Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := NewServer(ServerConfig{Addr: addr})
		if err == nil {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("relaunching server on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerRestartNoSpuriousMarkdown kills and relaunches a shard server
// on the same port between generations. Every pooled connection is then
// dead on first reuse; the client must discard the stale pool and redial
// instead of charging the (healthy) server a transport failure. The
// regression this pins: before the redial grace, the first reuse triggered
// a mark-down and, with R=1, failed the next publish's write quorum.
func TestServerRestartNoSpuriousMarkdown(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	pairs := testPairs(300)
	ref := reference(pairs)
	p, b1 := publish(t, Config{Servers: []string{addr}}, dds.NewStore(pairs, 4, 0x5eed))
	checkBackend(t, b1, ref) // also warms the connection pool

	srv.Close()
	srv2 := relaunch(t, addr)
	defer srv2.Close()

	// Reads of the retired generation fail over cleanly — the restarted
	// server holds nothing — without any mark-down: the stale pooled
	// connection is replaced by a fresh dial that gets a protocol-level
	// no-store answer, which says nothing bad about the server's health.
	if _, ok := b1.Get(dds.Key{Tag: 9, A: 1 << 40, B: 7}); ok {
		t.Fatal("read of a generation the restarted server never held succeeded")
	}
	for _, s := range p.c.servers {
		if n := s.downs.Load(); n != 0 {
			t.Fatalf("server %s marked down %d times by a stale-pool read", s.addr, n)
		}
	}

	// The next generation publishes through the same pools (redial, not
	// failover) and reads back byte-identical to the oracle.
	b2, err := p.Publish(2, dds.NewStore(pairs, 4, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatalf("publish after restart: %v", err)
	}
	checkBackend(t, b2, ref)

	for _, s := range p.c.servers {
		if n := s.downs.Load(); n != 0 {
			t.Fatalf("server %s marked down %d times across the restart", s.addr, n)
		}
		if s.down() {
			t.Fatalf("server %s left marked down after a healthy restart", s.addr)
		}
	}
}

// TestDeadServerStillMarksDown is the counterweight to the redial grace: a
// pooled-connection failure whose redial also fails is a genuinely dead
// server and must count against health — the grace must not mask it.
func TestDeadServerStillMarksDown(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(50)
	p, b := publish(t, Config{Servers: []string{srv.Addr()}}, dds.NewStore(pairs, 4, 0x5eed))
	if _, ok := b.Get(pairs[0].Key); !ok {
		t.Fatal("warm read failed")
	}

	// No relaunch: the redial gets connection refused.
	srv.Close()
	if _, ok := b.Get(dds.Key{Tag: 9, A: 1 << 40, B: 7}); ok {
		t.Fatal("read from a dead server succeeded")
	}
	s := p.c.servers[0]
	if s.downs.Load() == 0 {
		t.Fatal("dead server was never marked down")
	}
	if !s.down() {
		t.Fatal("dead server not currently marked down")
	}
}
