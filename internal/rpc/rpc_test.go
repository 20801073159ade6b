package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ampc/internal/dds"
)

// testPairs builds a deterministic workload with duplicated keys, so every
// read surface (point, indexed, range, count) has something to disagree on.
func testPairs(n int) []dds.KV {
	pairs := make([]dds.KV, 0, n+n/4)
	for i := 0; i < n; i++ {
		k := dds.Key{Tag: uint8(i % 3), A: int64(i), B: int64(i % 7)}
		pairs = append(pairs, dds.KV{Key: k, Value: dds.Value{A: int64(i * 10), B: int64(-i)}})
		if i%4 == 0 {
			pairs = append(pairs, dds.KV{Key: k, Value: dds.Value{A: int64(i*10 + 1), B: int64(i)}})
		}
	}
	return pairs
}

// reference is the in-memory oracle: key → values in store order.
func reference(pairs []dds.KV) map[dds.Key][]dds.Value {
	s := dds.NewStore(pairs, 4, 0x5eed)
	ref := make(map[dds.Key][]dds.Value)
	for _, kv := range pairs {
		if _, seen := ref[kv.Key]; seen {
			continue
		}
		ref[kv.Key] = s.GetRange(kv.Key, 0, s.Count(kv.Key), nil)
	}
	return ref
}

func TestFrameRoundTrip(t *testing.T) {
	var netBuf bytes.Buffer
	bw := bufio.NewWriter(&netBuf)
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for i, p := range payloads {
		if err := writeFrame(bw, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&netBuf)
	var buf []byte
	for i, want := range payloads {
		tag, got, b, err := readFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = b
		if tag != byte(i+1) {
			t.Fatalf("frame %d: tag %d", i, tag)
		}
		if !bytes.Equal(got, want) && len(want) > 0 {
			t.Fatalf("frame %d: payload differs", i)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var netBuf bytes.Buffer
	head := le.AppendUint32(nil, maxFrame+1)
	netBuf.Write(append(head, opPing))
	if _, _, _, err := readFrame(bufio.NewReader(&netBuf), nil); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestReadFrameHostileLength: five bytes claiming the largest legal frame,
// then EOF. The read must fail having allocated about frameEager, not the
// 256 MiB the header asked for.
func TestReadFrameHostileLength(t *testing.T) {
	head := append(le.AppendUint32(nil, maxFrame), opPut)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(head)), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameEager {
		t.Fatalf("a %d-byte header made readFrame allocate %d bytes (bound %d)", len(head), got, 2*frameEager)
	}
}

// TestReadFrameGrows reads a frame larger than frameEager into a small
// recycled buffer: the incremental path must deliver it intact and hand
// back a buffer the next frame of that size reuses.
func TestReadFrameGrows(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 3*frameEager/16+1)
	var netBuf bytes.Buffer
	bw := bufio.NewWriter(&netBuf)
	for i := 0; i < 2; i++ {
		if err := writeFrame(bw, opPut, want); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	br := bufio.NewReader(&netBuf)
	tag, got, buf, err := readFrame(br, make([]byte, 64))
	if err != nil || tag != opPut || !bytes.Equal(got, want) {
		t.Fatalf("grown frame: tag %d err %v equal %v", tag, err, bytes.Equal(got, want))
	}
	_, got, again, err := readFrame(br, buf)
	if err != nil || !bytes.Equal(got, want) || &again[0] != &buf[0] {
		t.Fatalf("second frame: err %v, buffer reused %v", err, err == nil && &again[0] == &buf[0])
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader the way a
// connection would: frame after frame into one recycled buffer. Whatever
// the bytes, readFrame must return an error or a payload of exactly the
// claimed length that re-encodes to the bytes consumed, the buffer may
// never outgrow what the peer actually sent, and io.EOF comes only between
// frames.
func FuzzReadFrame(f *testing.F) {
	// Real frames, encoded as client.appendPut and client.getBatch encode them.
	puts, get := seedRequests(f)
	f.Add(frame(opPut, puts[1]))
	f.Add(append(frame(opGetBatch, get), frame(opPing, nil)...))
	f.Add(append(le.AppendUint32(nil, maxFrame), opPut))
	f.Add(append(le.AppendUint32(nil, 0), opPing))
	f.Add(append(frame(opPing, nil), frame(opPing, nil)[:3]...)) // ends inside a header
	f.Add(frame(opGetBatch, get)[:frameHead])                    // ends before the payload

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		rest := data
		var buf []byte
		for {
			tag, payload, b, err := readFrame(br, buf)
			buf = b
			if limit := max(frameEager, 2*len(data)); cap(buf) > limit {
				t.Fatalf("buffer grew to %d for %d input bytes", cap(buf), len(data))
			}
			if err == io.EOF && len(rest) > 0 {
				t.Fatalf("clean end of stream reported %d bytes into a frame", len(rest))
			}
			if err != nil {
				return
			}
			enc := frame(tag, payload)
			if !bytes.HasPrefix(rest, enc) {
				t.Fatalf("frame tag %d len %d does not re-encode to the bytes consumed", tag, len(payload))
			}
			rest = rest[len(enc):]
		}
	})
}

// frame encodes one wire frame.
func frame(op byte, payload []byte) []byte {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	writeFrame(bw, op, payload)
	bw.Flush()
	return b.Bytes()
}

// seedRequests returns real request payloads for generation 3 of run 0xfeed:
// two multi-section put frames covering a 4-shard store — the sections
// EncodeSections ships — and a two-key getBatch.
func seedRequests(f *testing.F) (puts [][]byte, get []byte) {
	c := &client{run: 0xfeed}
	store := dds.NewStore(testPairs(200), 4, 0x5eed)
	_, sections, encs := dds.EncodeSections(nil, store)
	puts = append(puts, c.appendPut(nil, 3, []int{0, 1}, sections, encs), c.appendPut(nil, 3, []int{2, 3}, sections, encs))
	get = le.AppendUint32(c.reqHeader(nil, 3), 2)
	get = appendKey(appendKey(get, dds.Key{Tag: 1, A: 4, B: 4}), dds.Key{Tag: 2, A: -5})
	return puts, get
}

// fuzzConn is a net.Conn over fixed input bytes: the server reads them, then
// EOF, and whatever it writes back collects in out.
type fuzzConn struct {
	in     io.Reader
	out    bytes.Buffer
	closed bool
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *fuzzConn) Close() error                     { c.closed = true; return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return nil }
func (c *fuzzConn) RemoteAddr() net.Addr             { return nil }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzServerConn plays a whole hostile connection — handshake, ops, key
// counts, payloads — into the server's connection handler, against a server
// holding a real generation so reads reach resident shards. Whatever the
// bytes, the handler must not panic, must return once the input runs out,
// close the connection, and have written nothing but whole response frames
// with a known status. Coalesced getBatch frames carry hundreds of keys, so
// this is the server's largest attack surface.
func FuzzServerConn(f *testing.F) {
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	puts, get := seedRequests(f)
	conn := func(frames ...[]byte) []byte {
		b := []byte(handshakeMagic)
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	key := appendKey(nil, dds.Key{Tag: 1, A: 4, B: 4})
	hdr := (&client{run: 0xfeed}).reqHeader(nil, 3)
	rangeReq := le.AppendUint32(le.AppendUint32(append(append([]byte(nil), hdr...), key...), 0), 2)
	f.Add(conn(frame(opPing, nil), frame(opGetBatch, get)))
	f.Add(conn(frame(opGetRange, rangeReq), frame(opCount, append(append([]byte(nil), hdr...), key...)), frame(opFree, hdr), frame(opGetBatch, get)))
	f.Add(conn(frame(opPut, puts[0]), frame(opGetBatch, get), frame(opPut, puts[1]), frame(opGetBatch, get)))
	f.Add(conn(frame(opGetBatch, le.AppendUint32(append([]byte(nil), hdr...), 1<<30))))
	f.Add(conn(append(le.AppendUint32(nil, maxFrame), opGetBatch)))
	f.Add(conn(frame(99, nil), frame(opPut, hdr)))
	f.Add([]byte("AMPCRPC0"))
	torn := append([]byte(nil), puts[1]...)
	torn[len(torn)-1] ^= 0x40 // the last section's bytes, under its checksum
	f.Add(conn(frame(opFree, hdr), frame(opPut, puts[0]), frame(opPut, torn), frame(opGetBatch, get)))
	f.Add(append([]byte("AMPCRPC1"), frame(opPing, nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-seed the generation: an earlier input may have freed or
		// overwritten it.
		for _, p := range puts {
			if err := s.handlePut(p); err != nil {
				t.Fatal(err)
			}
		}
		c := &fuzzConn{in: bytes.NewReader(data)}
		done := make(chan struct{})
		s.wg.Add(1)
		go func() {
			s.serveConn(c)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("connection handler still running 10s after its input ended")
		}
		if !c.closed {
			t.Fatal("handler returned without closing the connection")
		}
		br := bufio.NewReader(&c.out)
		for {
			status, _, _, err := readFrame(br, nil)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("response stream ends in a broken frame: %v", err)
			}
			if status != statusOK && status != statusErr && status != statusNoStore {
				t.Fatalf("response with unknown status %d", status)
			}
		}
	})
}

func TestKeyValueCodec(t *testing.T) {
	keys := []dds.Key{{}, {Tag: 255, A: -1, B: 1 << 60}, {Tag: 7, A: 42, B: -42}}
	for _, k := range keys {
		if got := decodeKey(appendKey(nil, k)); got != k {
			t.Fatalf("key %+v round-tripped to %+v", k, got)
		}
	}
	vals := []dds.Value{{}, {A: -1, B: 1}, {A: 1 << 62, B: -(1 << 62)}}
	for _, v := range vals {
		if got := decodeValue(appendValue(nil, v)); got != v {
			t.Fatalf("value %+v round-tripped to %+v", v, got)
		}
	}
}

// TestShardAssignment pins the contiguous-range shard→server map: the
// primary ranges partition [0, p), replica(shard, 0) agrees with them, and
// a shard's R replicas are R distinct servers whenever R ≤ N.
func TestShardAssignment(t *testing.T) {
	for _, tc := range []struct{ p, n, r int }{
		{8, 3, 2}, {16, 4, 3}, {5, 5, 5}, {7, 2, 1}, {64, 3, 2}, {4, 8, 2},
	} {
		addrs := make([]string, tc.n)
		for j := range addrs {
			addrs[j] = fmt.Sprintf("srv%d", j)
		}
		c := newClient(Config{Servers: addrs, Replication: tc.r})
		covered := 0
		for j := 0; j < tc.n; j++ {
			lo, hi := primaryRange(j, tc.p, tc.n)
			for sh := lo; sh < hi; sh++ {
				if got := c.replica(sh, tc.p, 0).addr; got != addrs[j] {
					t.Fatalf("p=%d n=%d: shard %d primary %s, range says %s", tc.p, tc.n, sh, got, addrs[j])
				}
			}
			covered += hi - lo
		}
		if covered != tc.p {
			t.Fatalf("p=%d n=%d: primary ranges cover %d shards", tc.p, tc.n, covered)
		}
		r := c.cfg.Replication
		for sh := 0; sh < tc.p; sh++ {
			seen := make(map[string]bool)
			for i := 0; i < r; i++ {
				seen[c.replica(sh, tc.p, i).addr] = true
			}
			if len(seen) != r {
				t.Fatalf("p=%d n=%d r=%d: shard %d replicas not distinct", tc.p, tc.n, r, len(seen))
			}
		}
		c.close()
	}
}

// startFleet launches n loopback servers through the shared Fleet helper
// and returns them with their addresses. The fleet is closed by the test
// cleanup; individual servers may be killed first.
func startFleet(t testing.TB, n int, cfg ServerConfig) ([]*Server, []string) {
	t.Helper()
	cfgs := make([]ServerConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	f, err := StartFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fleet := make([]*Server, n)
	for i := range fleet {
		fleet[i] = f.Server(i)
	}
	return fleet, f.Addrs()
}

// checkBackend sweeps every read surface of b against the oracle.
func checkBackend(t *testing.T, b dds.StoreBackend, ref map[dds.Key][]dds.Value) {
	t.Helper()
	for k, want := range ref {
		if got := b.Count(k); got != len(want) {
			t.Fatalf("Count(%+v) = %d, want %d", k, got, len(want))
		}
		v, ok := b.Get(k)
		if !ok || v != want[0] {
			t.Fatalf("Get(%+v) = %+v %v, want %+v", k, v, ok, want[0])
		}
		for i, w := range want {
			v, ok := b.GetIndexed(k, i)
			if !ok || v != w {
				t.Fatalf("GetIndexed(%+v, %d) = %+v %v, want %+v", k, i, v, ok, w)
			}
		}
		got := b.GetRange(k, 0, len(want), nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GetRange(%+v)[%d] = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	absent := dds.Key{Tag: 99, A: -7, B: -7}
	if _, ok := b.Get(absent); ok {
		t.Fatalf("Get(absent) returned ok")
	}
	if n := b.Count(absent); n != 0 {
		t.Fatalf("Count(absent) = %d", n)
	}
	// One batched sweep over every key plus an absent one.
	keys := make([]dds.Key, 0, len(ref)+1)
	for k := range ref {
		keys = append(keys, k)
	}
	keys = append(keys, absent)
	if bg, ok := b.(dds.BatchGetter); ok {
		vals := make([]dds.Value, len(keys))
		oks := make([]bool, len(keys))
		bg.GetMany(keys, vals, oks)
		for i, k := range keys {
			want, present := ref[k]
			if oks[i] != present {
				t.Fatalf("GetMany(%+v) ok=%v, want %v", k, oks[i], present)
			}
			if present && vals[i] != want[0] {
				t.Fatalf("GetMany(%+v) = %+v, want %+v", k, vals[i], want[0])
			}
		}
	}
}

// publish ships the store through a fresh publisher and joins the barrier,
// returning the swapped remote backend.
func publish(t testing.TB, cfg Config, s *dds.Store) (*Publisher, dds.StoreBackend) {
	t.Helper()
	p := NewPublisher(cfg)
	t.Cleanup(func() { p.Close() })
	p.SetArena(dds.NewArena())
	b, err := p.Publish(1, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Barrier(); err != nil {
		t.Fatal(err)
	}
	return p, b
}

// TestPublishReadCycle is the single-server end-to-end: publish a store,
// read every surface back over the wire, free it, and observe the read
// failure latch afterwards.
func TestPublishReadCycle(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{})
	if err := Ping(addrs[0], time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	pairs := testPairs(500)
	ref := reference(pairs)
	_, b := publish(t, Config{Servers: addrs}, dds.NewStore(pairs, 4, 0x5eed))
	checkBackend(t, b, ref)
	if re := b.(interface{ ReadErr() error }); re.ReadErr() != nil {
		t.Fatalf("clean reads latched %v", re.ReadErr())
	}

	// Freeing the generation makes later reads fail loudly, not silently
	// read absent: the latch must carry ErrBackendUnavailable.
	if c, ok := b.(interface{ Close() error }); ok {
		c.Close()
	}
	if _, ok := b.Get(dds.Key{A: 1, B: 1}); ok {
		t.Fatal("read of a freed generation returned ok")
	}
	err := b.(interface{ ReadErr() error }).ReadErr()
	if !errors.Is(err, dds.ErrBackendUnavailable) {
		t.Fatalf("freed-generation read latched %v, want ErrBackendUnavailable", err)
	}
}

// TestIndexedReadsChargeLikeStore pins the load ledger of GetIndexed on
// every backend: a negative index, an index past the key's count and an
// absent key each charge the owning shard one query, as dds.Store does, so
// max_shard_load never depends on where the store lives.
func TestIndexedReadsChargeLikeStore(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{})
	pairs := testPairs(200)
	store := func() *dds.Store { return dds.NewStore(pairs, 4, 0x5eed) }
	fp := dds.NewFilePublisher(t.TempDir())
	t.Cleanup(func() { fp.Close() })
	file, err := fp.Publish(1, store())
	if err != nil {
		t.Fatal(err)
	}
	_, remote := publish(t, Config{Servers: addrs}, store())
	k := pairs[0].Key
	absent := dds.Key{Tag: 99, A: -7, B: -7}
	var want []int64
	for _, bk := range []struct {
		name string
		b    dds.StoreBackend
	}{{"mem", store()}, {"file", file}, {"rpc", remote}} {
		bk.b.ResetLoads()
		for _, read := range []struct {
			k dds.Key
			i int
		}{{k, -1}, {k, bk.b.Count(k)}, {absent, 0}} {
			if v, ok := bk.b.GetIndexed(read.k, read.i); ok {
				t.Fatalf("%s: GetIndexed(%+v, %d) = %+v, want absent", bk.name, read.k, read.i, v)
			}
		}
		loads := bk.b.ShardLoads()
		var total int64
		for _, l := range loads {
			total += l
		}
		if total != 4 { // the three indexed reads and the Count
			t.Fatalf("%s: loads %v total %d, want 4", bk.name, loads, total)
		}
		if want == nil {
			want = loads
		} else if !slices.Equal(loads, want) {
			t.Fatalf("%s: loads %v, mem charged %v", bk.name, loads, want)
		}
	}
}

// TestQuorumFailover is the replication acceptance test: with 3 servers and
// R=2, killing any one server after publish must leave every read surface
// answering identically, with no read failure latched.
func TestQuorumFailover(t *testing.T) {
	pairs := testPairs(400)
	ref := reference(pairs)
	for kill := 0; kill < 3; kill++ {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			fleet, addrs := startFleet(t, 3, ServerConfig{})
			cfg := Config{Servers: addrs, Replication: 2, Timeout: time.Second, DownCooldown: 50 * time.Millisecond}
			_, b := publish(t, cfg, dds.NewStore(pairs, 6, 0x5eed))
			fleet[kill].Close()
			checkBackend(t, b, ref)
			if err := b.(interface{ ReadErr() error }).ReadErr(); err != nil {
				t.Fatalf("failover latched %v", err)
			}
		})
	}
}

// TestWriteQuorumFailure pins the publish error path: with R=1 a dead
// server makes its shards miss quorum, and Barrier must name the shard and
// the replica address in an ErrBackendUnavailable error.
func TestWriteQuorumFailure(t *testing.T) {
	fleet, addrs := startFleet(t, 2, ServerConfig{})
	fleet[1].Close()
	p := NewPublisher(Config{Servers: addrs, Timeout: 200 * time.Millisecond})
	defer p.Close()
	p.SetArena(dds.NewArena())
	if _, err := p.Publish(1, dds.NewStore(testPairs(100), 4, 0x5eed)); err != nil {
		t.Fatal(err)
	}
	err := p.Barrier()
	if !errors.Is(err, dds.ErrBackendUnavailable) {
		t.Fatalf("barrier after dead server: %v, want ErrBackendUnavailable", err)
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("quorum error does not name the dead replica: %v", err)
	}
}

// TestFaultLatencyTimeout exercises the -fault-latency axis: a server
// slower than the request timeout is indistinguishable from a dead one, so
// reads must exhaust the replica list and surface ErrBackendUnavailable
// naming the shard.
func TestFaultLatencyTimeout(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{FaultLatency: 500 * time.Millisecond})
	// Publishing needs working puts, so load the sections through a patient
	// client first, then read through an impatient one.
	pairs := testPairs(60)
	store := dds.NewStore(pairs, 2, 0x5eed)
	patient := newClient(Config{Servers: addrs, Timeout: 5 * time.Second})
	defer patient.close()
	uploadStore(t, patient, 1, store)

	hasty := newClient(Config{Servers: addrs, Timeout: 50 * time.Millisecond, DownCooldown: time.Millisecond})
	hasty.run = patient.run
	defer hasty.close()
	k := pairs[0].Key
	shard := dds.ShardOf(k, store.Salt(), store.Shards())
	_, _, err := hasty.getOne(1, k, shard, store.Shards())
	if !errors.Is(err, dds.ErrBackendUnavailable) {
		t.Fatalf("read through latency fault: %v, want ErrBackendUnavailable", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shard)) {
		t.Fatalf("timeout error does not name the shard: %v", err)
	}
}

// TestFaultDropRetry exercises the -fault-drop axis: with a server dropping
// a third of its connections, enough retry passes must still answer every
// read correctly.
func TestFaultDropRetry(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{FaultDrop: 0.3, FaultSeed: 42})
	pairs := testPairs(50)
	ref := reference(pairs)
	store := dds.NewStore(pairs, 2, 0x5eed)
	c := newClient(Config{Servers: addrs, Timeout: time.Second, DownCooldown: time.Millisecond, Passes: 12})
	defer c.close()
	uploadStore(t, c, 1, store)
	b := newBackend(c, 1, store)
	checkBackend(t, b, ref)
	if err := b.ReadErr(); err != nil {
		t.Fatalf("drop-retry latched %v", err)
	}
}

// uploadStore puts the sections of s to their owners in the publisher's put
// frames, retrying frames that a fault-injecting server drops.
func uploadStore(t *testing.T, c *client, seq uint64, s *dds.Store) {
	t.Helper()
	_, sections, encs := dds.EncodeSections(nil, s)
	for _, srv := range c.servers {
		var owned []int
		for sh := range sections {
			for i := 0; i < c.cfg.Replication; i++ {
				if c.replica(sh, len(sections), i) == srv {
					owned = append(owned, sh)
				}
			}
		}
		for _, shards := range putFrames(owned, sections) {
			var putErr error
			for attempt := 0; attempt < 20; attempt++ {
				if putErr = putFrame(c, srv, seq, shards, sections, encs); putErr == nil {
					break
				}
			}
			if putErr != nil {
				t.Fatalf("put shards %v to %s: %v", shards, srv.addr, putErr)
			}
		}
	}
}

// TestGenerationEviction pins the per-run cap: pushing more generations
// than MaxGensPerRun evicts the oldest, whose reads then answer noStore.
func TestGenerationEviction(t *testing.T) {
	_, addrs := startFleet(t, 1, ServerConfig{MaxGensPerRun: 2})
	pairs := testPairs(30)
	store := dds.NewStore(pairs, 1, 0x5eed)
	c := newClient(Config{Servers: addrs, Timeout: time.Second})
	defer c.close()
	for seq := uint64(1); seq <= 3; seq++ {
		uploadStore(t, c, seq, store)
	}
	k := pairs[0].Key
	sh := dds.ShardOf(k, store.Salt(), store.Shards())
	if _, _, err := c.getOne(1, k, sh, store.Shards()); !errors.Is(err, dds.ErrBackendUnavailable) {
		t.Fatalf("evicted generation read: %v, want ErrBackendUnavailable", err)
	}
	if _, ok, err := c.getOne(3, k, sh, store.Shards()); err != nil || !ok {
		t.Fatalf("latest generation read: ok=%v err=%v", ok, err)
	}
}
