package ampc

import (
	"testing"

	"ampc/internal/dds"
	"ampc/internal/rpc"
)

// BenchmarkRoundOverhead measures the fixed cost of executing one round
// across P machines with no work, the floor under every
// algorithm's per-round cost.
func BenchmarkRoundOverhead(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		b.Run(benchName("P", p), func(b *testing.B) {
			rt := New(Config{P: p, S: 100, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Round("noop", func(*Ctx) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveReads measures budgeted, cached reads through a Ctx —
// the hot path of every AMPC algorithm. The input is re-published before
// every round: a read-only round freezes an empty next store, so without the
// re-publish every round after the first would read from nothing.
func BenchmarkAdaptiveReads(b *testing.B) {
	const n = 1 << 14
	pairs := make([]dds.KV, n)
	for i := range pairs {
		pairs[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64(i), 0)}
	}
	rt := New(Config{P: 1, S: n, Seed: 2})
	b.ResetTimer()
	reads := 0
	for reads < b.N {
		rt.SetInput(pairs)
		err := rt.Round("read", func(ctx *Ctx) error {
			for i := 0; i < n && reads < b.N; i++ {
				if _, ok := ctx.Read(key(int64(i), 0)); !ok {
					b.Error("missing key")
					return nil
				}
				reads++
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveReadMany measures the batched read path: the same keys as
// BenchmarkAdaptiveReads, fetched through ReadMany in blocks of 64.
func BenchmarkAdaptiveReadMany(b *testing.B) {
	const n = 1 << 14
	const block = 64
	pairs := make([]dds.KV, n)
	for i := range pairs {
		pairs[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64(i), 0)}
	}
	rt := New(Config{P: 1, S: n, Seed: 2})
	keys := make([]dds.Key, block)
	var out []ValueOK
	b.ResetTimer()
	reads := 0
	for reads < b.N {
		rt.SetInput(pairs)
		err := rt.Round("readmany", func(ctx *Ctx) error {
			for i := 0; i < n && reads < b.N; i += block {
				for j := range keys {
					keys[j] = key(int64(i+j), 0)
				}
				out = ctx.ReadMany(keys, out[:0])
				for _, r := range out {
					if !r.OK {
						b.Error("missing key")
						return nil
					}
				}
				reads += block
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteRound measures the remote lane shape: a loopback rpc
// backend whose store reports read frames, so the round runs one lane per
// machine (P = 64) and every machine reads the same 256 hot keys. Each
// machine is charged for and fetches every key; the backend's per-server
// frames and per-generation single-flight are all that coalesce the reads.
func BenchmarkRemoteRound(b *testing.B) {
	srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const hot = 256
	pairs := make([]dds.KV, hot)
	for i := range pairs {
		pairs[i] = dds.KV{Key: key(int64(i), 0), Value: val(int64(i), 0)}
	}
	rt := New(Config{
		P: 64, S: 4096, Seed: 4,
		Backend: rpc.NewPublisher(rpc.Config{Servers: []string{srv.Addr()}}),
	})
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SetInput(pairs)
		err := rt.Round("hot", func(ctx *Ctx) error {
			for j := 0; j < hot; j++ {
				if _, ok := ctx.Read(key(int64(j), 0)); !ok {
					b.Error("missing key")
					return nil
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFreeze measures the write-then-freeze path: P machines each
// writing a block and the builder merging into the next store.
func BenchmarkWriteFreeze(b *testing.B) {
	const perMachine = 256
	rt := New(Config{P: 64, S: perMachine * 2, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := rt.Round("write", func(ctx *Ctx) error {
			base := int64(ctx.Machine) * perMachine
			for j := int64(0); j < perMachine; j++ {
				ctx.Write(key(base+j, 0), val(j, 0))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
