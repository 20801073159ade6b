package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ampc/internal/dds"
)

// putFrame sends one put frame carrying shards' sections, as the publisher's
// upload does.
func putFrame(c *client, s *server, seq uint64, shards []int, sections [][]byte, encs []byte) error {
	return s.roundTrip(context.Background(), opPut, c.appendPut(nil, seq, shards, sections, encs), true, func([]byte) error { return nil })
}

// forgeSection rewrites a section's header through mutate and recomputes
// its checksum as the codec does — SplitMix64 over the 8-byte words of
// header[0:56] ++ payload, the payload's final partial word zero-padded. Any
// sender can do this, so a bound the header declares holds only if the
// reader checks it.
func forgeSection(sec []byte, mutate func(h []byte)) []byte {
	b := append([]byte(nil), sec...)
	mutate(b[:64])
	payload := append(append([]byte(nil), b[64:]...), make([]byte, (8-len(b[64:])%8)%8)...)
	h := uint64(0x9e3779b97f4a7c15)
	for _, part := range [][]byte{b[0:56], payload} {
		for i := 0; i+8 <= len(part); i += 8 {
			z := h ^ le.Uint64(part[i:])
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			h = z ^ (z >> 31)
		}
	}
	le.PutUint64(b[56:], h)
	return b
}

// TestPutForgedHeaderRefused puts sections whose headers declare an
// impossible shard geometry under a valid checksum. Each put must be refused,
// and the server must keep answering: a resident generation with shard count
// zero would panic the server (integer divide by zero) on the first read
// routed to it.
func TestPutForgedHeaderRefused(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{})
	c := newClient(Config{Servers: addrs, Timeout: time.Second})
	defer c.close()
	pairs := testPairs(60)
	store := dds.NewStore(pairs, 4, 0x5eed)
	_, sections, encs := dds.EncodeSections(nil, store)
	for seq, tc := range []struct {
		name   string
		shard  int
		mutate func(h []byte)
	}{
		{"zero shard count", 0, func(h []byte) { le.PutUint32(h[16:], 0) }},
		{"shard count beyond cap", 0, func(h []byte) { le.PutUint32(h[16:], 1<<20+1) }},
		{"shard index beyond count", 4, func(h []byte) { le.PutUint32(h[12:], 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := make([][]byte, tc.shard+1)
			forged[tc.shard] = forgeSection(sections[0], tc.mutate)
			err := putFrame(c, c.servers[0], uint64(seq), []int{tc.shard}, forged, bytes.Repeat(encs[:1], tc.shard+1))
			var re *remoteError
			if !errors.As(err, &re) || !strings.Contains(err.Error(), "inconsistent geometry") {
				t.Fatalf("forged put: %v, want a geometry refusal", err)
			}
			k := pairs[0].Key
			if _, _, err := c.getOne(uint64(seq), k, dds.ShardOf(k, store.Salt(), 4), 4); !errors.Is(err, dds.ErrBackendUnavailable) {
				t.Fatalf("read after a refused put: %v, want ErrBackendUnavailable", err)
			}
			if err := Ping(addrs[0], time.Second); err != nil {
				t.Fatalf("server stopped answering: %v", err)
			}
		})
	}
}

// TestVersion1HandshakeRefused: a stale client opening with the version 1
// magic must see its connection closed with nothing written back, so it never
// misparses a version 2 frame.
func TestVersion1HandshakeRefused(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{})
	nc, err := net.DialTimeout("tcp", addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(append([]byte("AMPCRPC1"), frame(opPing, nil)...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(nc)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server left a version 1 connection open")
	}
	if len(got) != 0 {
		t.Fatalf("server answered a version 1 handshake with %d bytes", len(got))
	}
}

// TestPutFrameAllOrNothing: a frame of four sections whose third carries a
// flipped byte under its packed checksum must install none of them — the
// generation stays absent and its reads answer noStore.
func TestPutFrameAllOrNothing(t *testing.T) {
	fleet, addrs := startFleet(t, 1, ServerConfig{})
	c := newClient(Config{Servers: addrs, Timeout: time.Second})
	defer c.close()
	pairs := testPairs(400)
	store := dds.NewStore(pairs, 4, 0x5eed)
	_, sections, encs := dds.EncodeSections(nil, store)
	if encs[2] == 0 {
		t.Fatal("section 2 travels raw; the test needs a packed one")
	}
	sections[2] = append([]byte(nil), sections[2]...)
	sections[2][len(sections[2])-1] ^= 0x40
	var re *remoteError
	if err := putFrame(c, c.servers[0], 1, []int{0, 1, 2, 3}, sections, encs); !errors.As(err, &re) {
		t.Fatalf("put with a corrupt section: %v, want a server refusal", err)
	}
	srv := fleet[0]
	srv.mu.RLock()
	resident := len(srv.gens)
	srv.mu.RUnlock()
	if resident != 0 {
		t.Fatalf("%d generations resident after a refused frame", resident)
	}
	keys := []dds.Key{pairs[0].Key, pairs[1].Key}
	var wg sync.WaitGroup
	call := &batchCall{seq: 1, force: true, keys: keys, idxs: []int{0, 1}, vals: make([]dds.Value, 2), oks: make([]bool, 2), wg: &wg}
	wg.Add(1)
	c.servers[0].join(c, call)
	wg.Wait()
	if !errors.Is(call.err, errNoStore) {
		t.Fatalf("read of the refused generation: %v, want noStore", call.err)
	}
}

// TestPutRefusesUnknownEncoding: a section whose encoding byte is neither raw
// (0) nor packed (1) is one the reader does not implement, so the put fails
// with dds.ErrBadVersion and installs nothing.
func TestPutRefusesUnknownEncoding(t *testing.T) {
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, sections, encs := dds.EncodeSections(nil, dds.NewStore(testPairs(100), 2, 0x5eed))
	encs[1] = 2
	err = s.handlePut((&client{run: 7}).appendPut(nil, 1, []int{0, 1}, sections, encs))
	if !errors.Is(err, dds.ErrBadVersion) {
		t.Fatalf("put with encoding 2: %v, want ErrBadVersion", err)
	}
	if len(s.gens) != 0 {
		t.Fatal("a frame with an unknown section encoding installed a generation")
	}
}

// TestPublishFewPutFrames publishes a P = 512 store to one server that
// delays every response by latency. One round trip per shard would take
// about 512 latencies; packed sections in shared put frames must finish in
// under 30, and the published store must read back intact.
func TestPublishFewPutFrames(t *testing.T) {
	const latency = 10 * time.Millisecond
	_, addrs := startFleet(t, 1, ServerConfig{FaultLatency: latency})
	p := NewPublisher(Config{Servers: addrs, Timeout: 5 * time.Second})
	defer p.Close()
	p.SetArena(dds.NewArena())
	pairs := testPairs(5000)
	ref := reference(pairs)
	start := time.Now()
	b, err := p.Publish(1, dds.NewStore(pairs, 512, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 30*latency {
		t.Fatalf("publishing 512 shards took %v, %.0f latencies", elapsed, float64(elapsed)/float64(latency))
	}
	keys := make([]dds.Key, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	vals, oks := make([]dds.Value, len(keys)), make([]bool, len(keys))
	b.(dds.BatchGetter).GetMany(keys, vals, oks)
	for i, k := range keys {
		if !oks[i] || vals[i] != ref[k][0] {
			t.Fatalf("Get(%+v) = %+v %v, want %+v", k, vals[i], oks[i], ref[k][0])
		}
	}
}
