package dds

import (
	"math/rand"
	"testing"
)

// freezeChain freezes each call's pairs through one builder onto the store
// the previous call produced, the way the AMPC runtime grows its static
// store: every call is its own generation and only the last survives.
func freezeChain(calls [][]KV, machines, p int, salt uint64, workers int, run Parallel, a *Arena) *Store {
	b := NewBuilder(machines)
	b.SetParallel(run)
	return freezeChainOn(b, calls, machines, p, salt, workers, a)
}

// freezeChainOn is freezeChain through a given builder. The first call's
// pairs are buffered through the machines' writers and frozen; every later
// call's are emitted onto the store before it (FreezeEmitted with a base),
// so a chain covers both freezes and the base re-insertion.
func freezeChainOn(b *Builder, calls [][]KV, machines, p int, salt uint64, workers int, a *Arena) *Store {
	var s *Store
	for _, pairs := range calls {
		if s != nil {
			s = b.freezeEmitted(a, s, newPlacement(p, salt), len(pairs), EmitList(pairs), workers)
			continue
		}
		b.Prime(p, salt)
		per := (len(pairs) + machines - 1) / machines
		for m := 0; m < machines; m++ {
			lo := min(m*per, len(pairs))
			b.Writer(m).WriteMany(pairs[lo:min(lo+per, len(pairs))])
		}
		s = b.freeze(a, b.allWriters(), len(pairs), workers)
	}
	return s
}

// TestFreezeOntoMatchesConcat is the base freeze's property test: a chain
// of freezes, each on top of the last, must serialize byte-identically to
// the counting-build oracle over all calls' pairs concatenated in call
// order. The call-size patterns keep a shard's table the same size, double
// it, or grow it 64-fold between calls, so base keys are re-inserted into
// tables of every relative size; duplicate keys repeat within and across
// calls.
func TestFreezeOntoMatchesConcat(t *testing.T) {
	r := rand.New(rand.NewSource(733))
	patterns := [][]int{
		{1},
		{200, 200},
		{40, 40, 40, 40},
		{3, 192},
		{150, 3, 1, 40},
		{0, 50, 0, 50},
	}
	for _, p := range []int{1, 3, 16, 64} {
		for _, dup := range []int{1, 4, 100} {
			for pi, pattern := range patterns {
				salt := r.Uint64()
				machines := []int{1, 4, 64}[r.Intn(3)]
				keySpace := 0
				for _, n := range pattern {
					keySpace += n * p
				}
				keySpace = keySpace/dup + 1
				var calls [][]KV
				var concat []KV
				for c, n := range pattern {
					pairs := make([]KV, n*p)
					for i := range pairs {
						pairs[i] = KV{
							Key:   Key{Tag: uint8(r.Intn(3) + 1), A: int64(r.Intn(keySpace)), B: int64(r.Intn(3))},
							Value: Value{A: int64(c), B: int64(i)},
						}
					}
					calls = append(calls, pairs)
					concat = append(concat, pairs...)
				}
				want := string(AppendSegment(nil, oracleStore(concat, p, salt)))
				if got := string(AppendSegment(nil, NewStore(concat, p, salt))); got != want {
					t.Fatalf("p=%d dup=%d pattern=%d: NewStore differs from the oracle", p, dup, pi)
				}
				for _, workers := range []int{1, 3} {
					for ri, run := range []Parallel{nil, reverseRun, stripedRun} {
						a := NewArena()
						if ri == 2 {
							// A dirty arena: stale tables and slabs of the same shape.
							a.Recycle(oracleStore(concat, p, salt^1))
						}
						got := freezeChain(calls, machines, p, salt, workers, run, a)
						if string(AppendSegment(nil, got)) != want {
							t.Fatalf("p=%d dup=%d pattern=%d machines=%d workers=%d run=%d: chained freeze differs from the oracle",
								p, dup, pi, machines, workers, ri)
						}
					}
				}
			}
		}
	}
}

// TestFreezeOntoCrowdedTables drives the re-insertion order hard: one shard,
// a base whose table is exactly half full, and a second call that grows the
// table 1×, 2×, 4× or 8×, over many seeds. Clusters in a half-full table are
// long and wrap around its end, so any re-insertion order other than the
// base's own would move keys.
func TestFreezeOntoCrowdedTables(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 400; trial++ {
		base := 1 << uint(r.Intn(7)) // fills a 2·base-slot table to half
		grow := []int{0, base, 3 * base, 7 * base}[trial%4]
		salt := r.Uint64()
		var calls [][]KV
		var concat []KV
		for c, n := range []int{base, grow} {
			pairs := make([]KV, n)
			for i := range pairs {
				pairs[i] = KV{Key: Key{Tag: 1, A: r.Int63n(4 * int64(base+grow))}, Value: Value{A: int64(c), B: int64(i)}}
			}
			calls = append(calls, pairs)
			concat = append(concat, pairs...)
		}
		want := string(AppendSegment(nil, oracleStore(concat, 1, salt)))
		if got := string(AppendSegment(nil, freezeChain(calls, 2, 1, salt, 1, nil, nil))); got != want {
			t.Fatalf("trial %d (base %d, grow %d): chained freeze differs from the oracle", trial, base, grow)
		}
	}
}

// TestFreezeOntoGeometryMismatchPanics: a base sharded or salted unlike the
// freeze cannot be re-inserted without rehashing its placement, so
// FreezeEmitted refuses it.
func TestFreezeOntoGeometryMismatchPanics(t *testing.T) {
	base := NewStore([]KV{{Key: Key{Tag: 1, A: 1}}}, 4, 7)
	for _, tc := range []struct {
		p    int
		salt uint64
	}{{4, 8}, {5, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreezeEmitted(p=%d, salt=%d) on a (4, 7) base did not panic", tc.p, tc.salt)
				}
			}()
			NewBuilder(0).FreezeEmitted(nil, base, tc.p, tc.salt, 1, EmitList([]KV{{Key: Key{Tag: 1, A: 2}}}))
		}()
	}
}
