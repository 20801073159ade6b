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
// frames are all that coalesce the reads.
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

// BenchmarkAddStatic measures the static publish: one counted round of
// 2^20 pairs over P = 512 machines, frozen once into the static store, on a
// fresh runtime each iteration (a second AddStatic would freeze on top of
// the first). The pairs repeat a key one time in four, as graph encodings do.
func BenchmarkAddStatic(b *testing.B) {
	const n, p = 1 << 20, 512
	pairs := make([]dds.KV, n)
	for i := range pairs {
		pairs[i] = dds.KV{Key: key(int64(i/4), int64(i%4/3)), Value: val(int64(i), 0)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := New(Config{P: p, S: 1 << 10, Seed: 6})
		b.StartTimer()
		if err := rt.AddStatic("publish", pairs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pair")
}

// BenchmarkEmitRound measures a steady-state publish round of 900 000
// records over P = 512 machines, about connectivity's largest conn-publish
// round on the benchmark's GNM(10^5, 4·10^5): emitted, an EmitRound whose
// freeze replays the records from their ordinals; round, a Round whose
// machines write the same blocks through their writers. Both leave the
// same store (TestEmitRoundMatchesRound).
func BenchmarkEmitRound(b *testing.B) {
	const n, p = 900_000, 512
	emit := func(w dds.RecordWriter, lo, hi int) {
		for i := lo; i < hi; i++ {
			w.Write(key(int64(i/9), int64(i%9)), val(int64(i), 0))
		}
	}
	for _, mode := range []string{"emitted", "round"} {
		b.Run(mode, func(b *testing.B) {
			rt := New(Config{P: p, S: 1 << 12, Seed: 7})
			defer rt.Close()
			round := func() error {
				if mode == "emitted" {
					return rt.EmitRound("publish", n, emit)
				}
				return rt.Round("publish", func(ctx *Ctx) error {
					lo, hi := BlockRange(ctx.Machine, n, ctx.P)
					emit(ctx, lo, hi)
					return ctx.Err()
				})
			}
			if err := round(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := round(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
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
