package ampc

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"ampc/internal/dds"
)

// ordinalRecords is the emitter of an n-record list computed from the
// ordinal alone: keys repeat every n/4 records, so later blocks add values
// to keys earlier blocks wrote.
func ordinalRecords(n int) dds.Emitter {
	return func(w dds.RecordWriter, lo, hi int) {
		for i := lo; i < hi; i++ {
			w.Write(key(int64(i%(n/4+1)), int64(i%3)), val(int64(i), int64(-i)))
		}
	}
}

// blockRound is the Round an EmitRound stands for: machine m writes
// records BlockRange(m, n, P) of emit's list through its writer.
func blockRound(rt *Runtime, name string, n int, emit dds.Emitter) error {
	return rt.Round(name, func(ctx *Ctx) error {
		lo, hi := BlockRange(ctx.Machine, n, ctx.P)
		emit(ctx, lo, hi)
		return ctx.Err()
	})
}

// storeBytes serializes a mem-backed runtime's current store.
func storeBytes(rt *Runtime) []byte { return dds.AppendSegment(nil, rt.Store().(*dds.Store)) }

// sameCounts fails unless two rounds' accounting agrees.
func sameCounts(t *testing.T, what string, a, b RoundStats) {
	t.Helper()
	if a.Writes != b.Writes || a.MaxMachineWrites != b.MaxMachineWrites || a.Queries != b.Queries ||
		a.MaxMachineQueries != b.MaxMachineQueries || a.MaxMachineReadCalls != b.MaxMachineReadCalls ||
		a.MaxShardLoad != b.MaxShardLoad || a.Pairs != b.Pairs || a.CacheMisses != b.CacheMisses {
		t.Fatalf("%s: counts differ:\n%+v\n%+v", what, a, b)
	}
}

// TestEmitRoundMatchesRound: an EmitRound leaves the store and the round
// counts a Round whose machines write the same blocks leaves — at shard
// counts that leave machines empty or split the list unevenly, at one and
// three lanes — and a later adaptive round reading it sees the same store.
func TestEmitRoundMatchesRound(t *testing.T) {
	input := []dds.KV{pair(1, 2), pair(3, 4)}
	for _, p := range []int{1, 7, 16} {
		for _, workers := range []int{1, 3} {
			for _, n := range []int{0, 5, 3001} {
				cfg := Config{P: p, S: 1 << 10, Seed: 53, Workers: workers}
				round, emitted := New(cfg), New(cfg)
				round.SetInput(input)
				emitted.SetInput(input)
				emit := ordinalRecords(n)
				if err := blockRound(round, "publish", n, emit); err != nil {
					t.Fatal(err)
				}
				if err := emitted.EmitRound("publish", n, emit); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(storeBytes(round), storeBytes(emitted)) {
					t.Fatalf("P=%d workers=%d n=%d: EmitRound's store differs from the Round's", p, workers, n)
				}
				st := emitted.Stats()[0]
				sameCounts(t, "publish", round.Stats()[0], st)
				if st.Execute != 0 {
					t.Fatalf("P=%d workers=%d n=%d: EmitRound reports %v of execute", p, workers, n, st.Execute)
				}
				read := func(ctx *Ctx) error {
					for i := ctx.Machine; i < n/4+1; i += ctx.P {
						for _, v := range ctx.ReadAll(key(int64(i), int64(i%3)), nil) {
							ctx.Write(key(int64(i), 9), v.Value)
						}
					}
					return ctx.Err()
				}
				if err := round.Round("read", read); err != nil {
					t.Fatal(err)
				}
				if err := emitted.Round("read", read); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(storeBytes(round), storeBytes(emitted)) {
					t.Fatalf("P=%d workers=%d n=%d: the round after EmitRound differs", p, workers, n)
				}
				sameCounts(t, "read", round.Stats()[1], emitted.Stats()[1])
				round.Close()
				emitted.Close()
			}
		}
	}
}

// TestEmitRoundBudget: a block past the write budget fails the EmitRound
// with the Round's ErrBudget, naming the same machine, and a list whose
// largest block fits exactly passes both.
func TestEmitRoundBudget(t *testing.T) {
	cfg := Config{P: 8, S: 10, BudgetFactor: 1, Seed: 5}
	for _, tc := range []struct {
		n    int
		fail bool
	}{{80, false}, {81, true}, {400, true}} {
		round, emitted := New(cfg), New(cfg)
		emit := ordinalRecords(tc.n)
		errR := blockRound(round, "publish", tc.n, emit)
		errE := emitted.EmitRound("publish", tc.n, emit)
		if tc.fail != errors.Is(errE, ErrBudget) || tc.fail != errors.Is(errR, ErrBudget) {
			t.Fatalf("n=%d: Round err %v, EmitRound err %v; want ErrBudget %v", tc.n, errR, errE, tc.fail)
		}
		if tc.fail && errR.Error() != errE.Error() {
			t.Fatalf("n=%d: Round fails with %q, EmitRound with %q", tc.n, errR, errE)
		}
		if len(round.Stats()) != len(emitted.Stats()) {
			t.Fatalf("n=%d: Round counted %d rounds, EmitRound %d", tc.n, len(round.Stats()), len(emitted.Stats()))
		}
		round.Close()
		emitted.Close()
	}
}

// TestEmitRoundConsumesFaults: an EmitRound draws the failure schedule a
// Round draws — Config.FaultProb's coin per machine, and the FailMachine
// schedule it consumes — so the rounds after it restart the same machines
// the same number of times and leave the same stores.
func TestEmitRoundConsumesFaults(t *testing.T) {
	const n, p = 2000, 12
	cfg := Config{P: p, S: 1 << 10, Seed: 71, Workers: 2, FaultProb: 0.3}
	run := func(emitted bool) ([]byte, [p]int32) {
		rt := New(cfg)
		defer rt.Close()
		rt.FailMachine(4, 3)
		emit := ordinalRecords(n)
		var err error
		if emitted {
			err = rt.EmitRound("publish", n, emit)
		} else {
			err = blockRound(rt, "publish", n, emit)
		}
		if err != nil {
			t.Fatal(err)
		}
		var attempts [p]int32
		for r := 0; r < 2; r++ {
			err := rt.Round("probe", func(ctx *Ctx) error {
				atomic.AddInt32(&attempts[ctx.Machine], 1)
				for i := ctx.Machine; i < n/4+1; i += ctx.P {
					if v, ok := ctx.Read(key(int64(i), int64(i%3))); ok {
						ctx.Write(key(int64(i), int64(r)), dds.Value{A: v.A + int64(ctx.RNG.Intn(5))})
					}
				}
				return ctx.Err()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return storeBytes(rt), attempts
	}
	roundBytes, roundAttempts := run(false)
	emitBytes, emitAttempts := run(true)
	if roundAttempts != emitAttempts {
		t.Fatalf("later rounds' attempts per machine: %v after a Round, %v after an EmitRound", roundAttempts, emitAttempts)
	}
	restarts := int32(0)
	for _, a := range roundAttempts {
		restarts += a - 2
	}
	if restarts == 0 {
		t.Fatal("no machine failed in the later rounds: the schedule check proves nothing")
	}
	if !bytes.Equal(roundBytes, emitBytes) {
		t.Fatal("the store after the later rounds differs")
	}
}
