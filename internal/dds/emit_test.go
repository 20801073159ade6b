package dds

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFreezeEmittedMatchesBuffered holds the emitted freeze to the
// counting-build oracle, which the buffered freeze of the same records
// matches, byte for byte: one to four tasks, shard counts 1, 7 and 512,
// fresh tables and a dirty arena's recycled ones, alone and on top of a
// base. The inputs are random pairs, a duplicate-heavy list that makes every
// task stash more than one chunk of duplicate-key values, and wide keys and
// values.
func TestFreezeEmittedMatchesBuffered(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	inputs := []struct {
		name      string
		base, top []KV
		chunks    bool // every task must stash more than one chunk
	}{
		{"random", randomPairs(r, 700, 1), randomPairs(r, 5000, 1), false},
		{"dup-heavy", randomPairs(r, 2*dupChunk, 100), randomPairs(r, 12*dupChunk, 100), true},
		{"wide", widePairs(r, 300), widePairs(r, 3000), false},
	}
	for _, in := range inputs {
		for _, p := range []int{1, 7, 512} {
			for _, calls := range [][][]KV{{in.top}, {in.base, in.top}} {
				salt := r.Uint64()
				var concat []KV
				for _, pairs := range calls {
					concat = append(concat, pairs...)
				}
				want := AppendSegment(nil, oracleStore(concat, p, salt))
				var base *Store
				if len(calls) == 2 {
					base = NewStore(in.base, p, salt)
				} else if got := AppendSegment(nil, freezePairs(in.top, 7, p, salt, 2, nil, NewArena())); !bytes.Equal(got, want) {
					t.Fatalf("%s p=%d: buffered freeze differs from the oracle", in.name, p)
				}
				for workers := 1; workers <= 4; workers++ {
					for dirty, a := range []*Arena{nil, NewArena()} {
						if a != nil {
							a.Recycle(NewStore(in.top, p, salt^1))
						}
						b := NewBuilder(1)
						b.SetParallel(stripedRun)
						got := b.freezeEmitted(a, base, newPlacement(p, salt), len(in.top), EmitList(in.top), workers)
						if !bytes.Equal(AppendSegment(nil, got), want) {
							t.Fatalf("%s p=%d calls=%d workers=%d dirty=%d: emitted freeze differs from the buffered one",
								in.name, p, len(calls), workers, dirty)
						}
						if !in.chunks {
							continue
						}
						for k := range min(workers, p) {
							if b.dups[k].used < 2 {
								t.Fatalf("%s p=%d workers=%d: task %d stashed %d chunks, want more than one",
									in.name, p, workers, k, b.dups[k].used)
							}
						}
					}
				}
			}
		}
	}
}

// TestFreezeEmittedLeavesWriters pins that an emitted freeze reads no
// writer and leaves the builder's primed epoch alone: writes buffered before
// it freeze afterwards into the store they would have made without it.
func TestFreezeEmittedLeavesWriters(t *testing.T) {
	const p, salt = 16, uint64(0xE1)
	r := rand.New(rand.NewSource(54))
	written, emitted := randomPairs(r, 6000, 4), randomPairs(r, 9000, 4)
	b := NewBuilder(3)
	b.Prime(p, salt)
	for m := range 3 {
		b.Writer(m).WriteMany(written[m*2000 : (m+1)*2000])
	}
	if got := b.FreezeEmitted(nil, nil, p, salt^7, len(emitted), EmitList(emitted)); !bytes.Equal(
		AppendSegment(nil, got), AppendSegment(nil, oracleStore(emitted, p, salt^7))) {
		t.Fatal("emitted freeze differs from the oracle")
	}
	if got := b.Freeze(p, salt); !bytes.Equal(AppendSegment(nil, got), AppendSegment(nil, oracleStore(written, p, salt))) {
		t.Fatal("the writers' freeze after an emitted one differs from the oracle")
	}
}
