package dds

import (
	"testing"

	"ampc/internal/rng"
)

// TestLemma21WeightedBallsInBins validates the paper's Lemma 2.1 directly:
// T balls with integer weights in [0, P] summing to T, placed uniformly at
// random into P bins, give a maximum bin weight of O(S) = O(T/P) w.h.p.
// Here balls are key-value pairs, weights are per-key query counts, and
// bins are shards. The bound is a property of the placement hash, so it must
// hold for every storage backend — the table-driven helper runs the same
// query schedule against the in-memory shards and the shards decoded from a
// segment.
func TestLemma21WeightedBallsInBins(t *testing.T) {
	const (
		p = 64
		s = 1024
		T = p * s
	)
	r := rng.New(7, 40)

	// Build T total weight across keys with a skewed weight profile: a few
	// hot keys queried P times each, the rest light — the worst shape the
	// lemma permits (weights up to P).
	type ball struct {
		key    Key
		weight int
	}
	var balls []ball
	remaining := T
	id := int64(0)
	for remaining > 0 {
		w := 1
		if id%37 == 0 {
			w = p // hot key at the lemma's weight cap
		}
		if w > remaining {
			w = remaining
		}
		balls = append(balls, ball{Key{1, id, 0}, w})
		remaining -= w
		id++
	}

	pairs := make([]KV, len(balls))
	for i, b := range balls {
		pairs[i] = KV{b.key, Value{int64(b.weight), 0}}
	}
	forEachBackend(t, NewStore(pairs, p, r.Uint64()), func(t *testing.T, store StoreBackend) {
		store.ResetLoads()
		// Issue the queries: each ball is queried `weight` times.
		for _, b := range balls {
			for q := 0; q < b.weight; q++ {
				store.Get(b.key)
			}
		}

		max := store.MaxShardLoad()
		// The lemma promises O(S) w.h.p.; with these constants a factor-2
		// bound holds comfortably. A broken hash or placement would blow far
		// past it.
		if max > 2*s {
			t.Fatalf("max shard load %d exceeds 2S = %d (Lemma 2.1 violated)", max, 2*s)
		}
		// And it must not be suspiciously low either: total load T over p
		// bins averages S, so the max is at least S.
		if max < s {
			t.Fatalf("max shard load %d below the mean S = %d: accounting bug", max, s)
		}
	})
}

// TestLemma21AcrossSalts repeats the placement over several salts; the
// bound must hold for all of them (w.h.p. means failures would be visibly
// rare even at this scale) and for both storage backends.
func TestLemma21AcrossSalts(t *testing.T) {
	const (
		p = 32
		s = 256
		T = p * s
	)
	for salt := uint64(1); salt <= 10; salt++ {
		pairs := make([]KV, T)
		for i := range pairs {
			pairs[i] = KV{Key{1, int64(i), 0}, Value{}}
		}
		forEachBackend(t, NewStore(pairs, p, salt), func(t *testing.T, store StoreBackend) {
			store.ResetLoads()
			for i := 0; i < T; i++ {
				store.Get(Key{1, int64(i), 0})
			}
			if max := store.MaxShardLoad(); max > 2*s {
				t.Fatalf("salt %d: max shard load %d > 2S = %d", salt, max, 2*s)
			}
		})
	}
}
