//go:build linux

package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"ampc/internal/dds"
)

// saturatedListener returns the address of a loopback socket that listens
// with an accept backlog of zero, never accepts, and already holds one
// queued connection. Linux drops every further SYN to it, so a dial there
// times out the way one to a down host does, instead of being refused.
func saturatedListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	fill, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fill.Close() })
	if nc, err := net.DialTimeout("tcp", addr, 50*time.Millisecond); err == nil {
		nc.Close()
		t.Skip("kernel accepted past a full backlog; cannot provoke a dial timeout")
	}
	return addr
}

// TestDialTimeoutIsRetryable: a dial that times out matches
// context.DeadlineExceeded through net's timeout error, yet it says nothing
// about the run, so it must stay retryable on another replica.
func TestDialTimeoutIsRetryable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = (&net.Dialer{}).DialContext(ctx, "tcp", ln.Addr().String())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired dial returned %v, want an error matching context.DeadlineExceeded", err)
	}
	if !retryable(err) {
		t.Fatalf("retryable(%v) = false: a dial timeout must fail over", err)
	}
}

// TestDialTimeoutFailsOver: with R=2 under a live run context, a replica
// whose dials time out (no RST, as for a host that is down) is marked down
// and every read moves to the other replica, on the scalar path
// (eachReplica) and on the batched one (Backend.GetMany), latching nothing.
func TestDialTimeoutFailsOver(t *testing.T) {
	const timeout = 300 * time.Millisecond
	pairs := testPairs(400)
	ref := reference(pairs)
	reads := map[string]func(b dds.StoreBackend, keys []dds.Key){
		"scalar": func(b dds.StoreBackend, keys []dds.Key) {
			for _, k := range keys {
				if v, ok := b.Get(k); !ok || v != ref[k][0] {
					t.Fatalf("Get(%+v) = %+v %v, want %+v", k, v, ok, ref[k][0])
				}
			}
		},
		"batch": func(b dds.StoreBackend, keys []dds.Key) {
			vals, oks := make([]dds.Value, len(keys)), make([]bool, len(keys))
			b.GetMany(keys, vals, oks)
			for i, k := range keys {
				if !oks[i] || vals[i] != ref[k][0] {
					t.Fatalf("GetMany(%+v) = %+v %v, want %+v", k, vals[i], oks[i], ref[k][0])
				}
			}
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			_, addrs := startFleet(t, 2, ServerConfig{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Servers: addrs, Replication: 2, Timeout: timeout, DownCooldown: time.Minute}
			p := NewPublisher(cfg)
			t.Cleanup(func() { p.Close() })
			p.SetContext(ctx)
			s := dds.NewStore(pairs, 8, 0x5eed)
			b, err := p.Publish(1, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Barrier(); err != nil {
				t.Fatal(err)
			}
			// Server 0 now answers no dial: its pool is dropped and its
			// address points at the saturated listener.
			dead := p.c.servers[0]
			dead.discardIdle()
			dead.addr = saturatedListener(t)
			var keys []dds.Key
			for _, kv := range pairs {
				if p.c.replica(dds.ShardOf(kv.Key, s.Salt(), s.Shards()), s.Shards(), 0) == dead {
					keys = append(keys, kv.Key)
				}
			}
			if len(keys) == 0 {
				t.Fatal("no key has server 0 as its primary")
			}
			start := time.Now()
			read(b, keys)
			if took := time.Since(start); took < timeout {
				t.Fatalf("reads took %v, less than the %v dial timeout: the dial did not time out", took, timeout)
			}
			if err := b.ReadErr(); err != nil {
				t.Fatalf("dial timeout latched %v, want failover to the second replica", err)
			}
			if d := dead.downs.Load(); d == 0 {
				t.Fatal("the replica whose dials time out was never marked down")
			}
		})
	}
}
