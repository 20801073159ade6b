package dds

import "fmt"

// Emitted freezes.
//
// In the AMPC model a round's writes are the next store. When every
// machine's writes are its block of a record list the master already holds
// — a contracted graph, a ranked graph, a streamed input — buffering them
// copies the whole list into writer entries only for the freeze to read it
// back. The emitted freeze reads the list from its producer instead: a
// sizing pass emits it once, split over the tasks, to count every shard's
// pairs; then each insert task emits it whole, in ordinal order, hashes
// every record and inserts those of its own shards through the buffered
// freeze's insert loop. Every shard so sees its pairs in ordinal order —
// the machine-id order of a round whose machines write consecutive blocks —
// and the store is byte-identical to the buffered freeze of the same
// writes. The price is CPU: at W tasks every record is emitted and hashed
// W+1 times instead of once; the gain is the writer buffers, 28 bytes per
// record, which never exist.

// RecordWriter receives emitted records; *Writer is one.
type RecordWriter interface {
	Write(Key, Value)
}

// Emitter writes records [lo, hi) of an ordinal-numbered record list to w,
// in ordinal order. An emitted freeze calls it more than once, from
// concurrent tasks and over different ranges, so it must be a pure function
// of its range: record i is the same pair on every call.
type Emitter func(w RecordWriter, lo, hi int)

// EmitList returns the Emitter of a pair list: record i is pairs[i].
func EmitList(pairs []KV) Emitter {
	return func(w RecordWriter, lo, hi int) {
		for _, kv := range pairs[lo:hi] {
			w.Write(kv.Key, kv.Value)
		}
	}
}

// FreezeEmitted freezes the n records emit produces into a store sharded p
// ways under salt: the store FreezeArena makes of the same records buffered
// through writers in ordinal order, byte for byte. It reads no writer and
// leaves the builder's writers and primed epoch as they were; LastFreeze
// reports it. A non-nil base's pairs come first: each shard re-inserts the
// base's keys, every key with its values in index order, so a key emitted
// again gains values after its base ones, byte-identical to freezing base's
// input followed by the records. base must be sharded p ways under salt.
// The AMPC runtime's static store grows this way, one counted round per
// publish, without keeping its input.
func (b *Builder) FreezeEmitted(a *Arena, base *Store, p int, salt uint64, n int, emit Emitter) *Store {
	pl := newPlacement(p, salt)
	total := n
	if base != nil {
		if len(base.shards) != pl.p || base.salt != salt {
			panic(fmt.Sprintf("dds: FreezeEmitted on a base of (p=%d, salt=%#x) for (p=%d, salt=%#x)",
				len(base.shards), base.salt, pl.p, salt))
		}
		total += base.pairs
	}
	return b.freezeEmitted(a, base, pl, n, emit, buildWorkers(total))
}

// freezeEmitted is FreezeEmitted with a set task count. The sizing pass
// splits the ordinals into one contiguous range per task and sums the
// tasks' per-shard counts; then every insert task emits all n records.
func (f *freezer) freezeEmitted(a *Arena, base *Store, pl placement, n int, emit Emitter, workers int) *Store {
	total := n
	if base != nil {
		total += base.pairs
	}
	workers = max(1, min(workers, pl.p))
	for len(f.batches) < workers {
		f.batches = append(f.batches, new(entryBatch))
	}
	return f.build(a, base, pl, total, workers, func(counts []int64) {
		tasks := min(workers, max(n, 1))
		if tasks == 1 {
			emit(&counter{pl, counts}, 0, n)
			return
		}
		p := pl.p
		if cap(f.tasks) < tasks*p {
			f.tasks = make([]int64, tasks*p)
		}
		per := f.tasks[:tasks*p]
		clear(per)
		dispatch(tasks, tasks, f.run, func(k int) {
			lo, hi := k*n/tasks, (k+1)*n/tasks
			emit(&counter{pl, per[k*p : (k+1)*p]}, lo, hi)
		})
		for k := range tasks {
			for si, c := range per[k*p : (k+1)*p] {
				counts[si] += c
			}
		}
	}, func(s *Store, owner []int32, k int32, keys [][]slot, dups *dupStash) {
		t := &inserter{s: s, pl: pl, owner: owner, k: k, keys: keys, dups: dups, batch: f.batches[k]}
		emit(t, 0, n)
		t.flush()
	})
}

// counter is the sizing pass's RecordWriter: it counts every record against
// its shard.
type counter struct {
	pl     placement
	counts []int64
}

func (c *counter) Write(k Key, _ Value) { c.counts[c.pl.div.mod(hash(k, c.pl.salt))]++ }

// inserter is an insert task's RecordWriter: it hashes every record, keeps
// those of the shards owner assigns to task k as pre-hashed entries in a
// small batch, and inserts each full batch through the buffered freeze's
// insert loop. Batching is what keeps that loop tight: inserting each record
// as it arrives, between emitter calls and hashes, leaves the processor too
// few independent slot-table misses to overlap, and measured about a third
// slower per insert.
type inserter struct {
	s     *Store
	pl    placement
	owner []int32
	k     int32
	keys  [][]slot
	dups  *dupStash
	batch *entryBatch
	n     int // entries batched
}

// insertBatch is the number of entries an inserter batches, 14 KiB of
// entries and shard ids: small enough to stay in L1 with the tables' lines.
const insertBatch = 512

// entryBatch is an inserter's batch: entries, their shard ids, and the wide
// pairs they index.
type entryBatch struct {
	ents [insertBatch]entry
	sis  [insertBatch]uint32
	wide []KV
}

// Write stores every record's entry at the batch's end but counts it only
// when its shard is the task's: which records a task owns is a coin flip per
// record, and a branch on it mispredicts about half the time. t.n is always
// below insertBatch; the modulo only drops the bounds checks.
func (t *inserter) Write(k Key, v Value) {
	h := hash(k, t.pl.salt)
	si := t.pl.div.mod(h)
	mine := t.owner[si] == t.k
	b, n := t.batch, t.n%insertBatch
	b.ents[n] = entry{h: uint32(h >> 32), tag: k.Tag, ka: int32(k.A), kb: int32(k.B), va: int32(v.A), vb: int32(v.B)}
	b.sis[n] = uint32(si)
	if !narrow(k.A, k.B) || !narrow(v.A, v.B) {
		if !mine {
			return
		}
		b.ents[n].wide, b.ents[n].ka = true, int32(len(b.wide))
		b.wide = append(b.wide, KV{k, v})
	}
	if mine {
		n++
	}
	t.n = n
	if n == insertBatch {
		t.flush()
	}
}

// flush inserts the batched entries and empties the batch.
func (t *inserter) flush() {
	b := t.batch
	t.s.insertEntries(b.ents[:t.n], b.sis[:t.n], b.wide, t.owner, t.k, t.keys, t.dups)
	t.n, b.wide = 0, b.wide[:0]
}
