package rpc

import (
	"testing"

	"ampc/internal/dds"
)

// allocFleet publishes 2^16 distinct pairs over 64 shards to a 3-server
// in-process fleet with R = 2 and returns the remote backend and the keys.
func allocFleet(tb testing.TB) (dds.StoreBackend, []dds.Key) {
	_, addrs := startFleet(tb, 3, ServerConfig{})
	pairs := make([]dds.KV, 1<<16)
	keys := make([]dds.Key, len(pairs))
	for i := range pairs {
		keys[i] = dds.Key{Tag: 1, A: int64(i), B: int64(i >> 3)}
		pairs[i] = dds.KV{Key: keys[i], Value: dds.Value{A: int64(i), B: 1}}
	}
	_, b := publish(tb, Config{Servers: addrs, Replication: 2}, dds.NewStore(pairs, 64, 0x5eed))
	return b, keys
}

// TestRemoteReadAllocs pins the allocation-free read path: counted
// process-wide, so the servers' side of each frame is included, a 64-key
// GetMany and a Get of keys never read before cost a bounded handful of
// allocations, none per key.
func TestRemoteReadAllocs(t *testing.T) {
	b, keys := allocFleet(t)
	vals, oks := make([]dds.Value, 64), make([]bool, 64)
	next := 0
	many := testing.AllocsPerRun(200, func() {
		b.GetMany(keys[next:next+64], vals, oks)
		next += 64
	})
	one := testing.AllocsPerRun(200, func() {
		if _, ok := b.Get(keys[next]); !ok {
			t.Error("Get missed a present key")
		}
		next++
	})
	t.Logf("allocations: %.1f per 64-key GetMany, %.1f per Get", many, one)
	if many > 22 {
		t.Errorf("a 64-key GetMany allocates %.1f times, want <= 22", many)
	}
	if one > 6 {
		t.Errorf("a Get allocates %.1f times, want <= 6", one)
	}
	if err := b.ReadErr(); err != nil {
		t.Fatalf("reads latched %v", err)
	}
}

// BenchmarkBackendGetMany measures one 64-key GetMany of fresh keys on the
// fleet of TestRemoteReadAllocs.
func BenchmarkBackendGetMany(b *testing.B) {
	be, keys := allocFleet(b)
	vals, oks := make([]dds.Value, 64), make([]bool, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * 64 % len(keys)
		be.GetMany(keys[off:off+64], vals, oks)
	}
}

// BenchmarkPublish publishes one generation of 2^17 pairs over 64 shards and
// joins its Barrier, on a 3-server in-process fleet with R = 2, after a
// warm-up publish that sizes the publisher's segment buffer. allocs/op and
// B/op are process-wide, so they include the servers' decode of every put.
func BenchmarkPublish(b *testing.B) {
	_, addrs := startFleet(b, 3, ServerConfig{})
	p := NewPublisher(Config{Servers: addrs, Replication: 2})
	defer p.Close()
	s := dds.NewStore(testPairs(1<<17), 64, 0x5eed)
	publishOnce := func(seq int) {
		be, err := p.Publish(seq, s)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Barrier(); err != nil {
			b.Fatal(err)
		}
		be.Close()
	}
	publishOnce(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publishOnce(i + 1)
	}
}
