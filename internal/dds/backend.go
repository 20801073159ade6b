package dds

// StoreBackend is the read surface of one round's frozen store D_{i-1}. The
// AMPC runtime reads the previous round's data exclusively through this
// interface, so where the frozen shards physically live — in-process arrays
// (*Store, also what OpenSegment decodes a segment into) or remote shard
// servers — is invisible to every algorithm. All methods must be safe for
// concurrent use and must account queries against per-shard load counters so
// the Lemma 2.1 contention analysis keeps working for every backend.
type StoreBackend interface {
	// Get returns the value stored under k (index 0 of a duplicated key).
	Get(k Key) (Value, bool)
	// BatchGetter's GetMany is Get over a whole key batch.
	BatchGetter
	// GetRange appends the values stored under k at indices [lo, hi) to dst,
	// charging the shard hi-lo queries but probing the key once.
	GetRange(k Key, lo, hi int, dst []Value) []Value
	// Count returns the number of pairs stored under k.
	Count(k Key) int
	// Len returns the total number of pairs in the store.
	Len() int
	// Shards returns the number of DDS machines backing the store.
	Shards() int
	// ShardSizes returns the number of pairs resident on each shard.
	ShardSizes() []int
	// ShardLoads returns a copy of the per-shard query counters.
	ShardLoads() []int64
	// MaxShardLoad returns the largest per-shard query count.
	MaxShardLoad() int64
	// ResetLoads zeroes the per-shard counters.
	ResetLoads()
	// Salt returns the placement salt the store was built with. A caller
	// holding it computes the placement hash itself (HashOf): the runtime's
	// read memo keys its table by it and hands it to PrehashedGetter, so
	// each read hashes its key once.
	Salt() uint64
	// ReadErr returns the first read failure the backend latched, or nil.
	// A networked read that exhausts every replica cannot be reported
	// through Get, so it reads as absent and latches here; an in-process
	// store never fails a read.
	ReadErr() error
	// Close releases backend resources (a remote generation's connections).
	// The store must not be read after Close; closing an in-memory store is
	// a no-op.
	Close() error
}

// Close implements StoreBackend for the in-memory store; it is a no-op.
func (s *Store) Close() error { return nil }

// Salt returns the placement salt the store's shards were built with.
// Backends that re-materialize a store (file serialization, remote shards)
// must preserve it so key-to-shard routing is reproduced exactly.
func (s *Store) Salt() uint64 { return s.salt }

// ReadErr implements StoreBackend: an in-memory read never fails.
func (s *Store) ReadErr() error { return nil }

// BatchGetter is Get over a whole key batch in one call, part of every
// StoreBackend. A networked backend coalesces a machine's read set into
// per-server request frames instead of paying one round trip per key.
//
// GetMany fills vals[i], oks[i] for each keys[i] with exactly the result
// Get(keys[i]) would return, and accounts per-shard load identically (one
// query per key). The three slices must have equal length.
type BatchGetter interface {
	GetMany(keys []Key, vals []Value, oks []bool)
}

var _ StoreBackend = (*Store)(nil)

// Publisher turns each round's frozen in-memory store into the StoreBackend
// the next round reads. Freeze always produces a *Store first — sizing and
// insertion are in-process work — and the publisher decides where the
// frozen shards live while they are being queried.
type Publisher interface {
	// Publish installs store number seq (a monotonically increasing counter
	// over SetInput and round freezes) and returns the backend to read it
	// through. The returned backend is closed by the runtime when the store
	// retires. Publish takes ownership of s: a publisher may externalize it
	// asynchronously and recycle its memory later, so after a successful
	// Publish the caller reads only through the returned backend. A
	// publisher that returns s itself (MemPublisher, FilePublisher) must be
	// done reading it by the time its next Publish, Barrier or Close
	// returns; from then on the caller may recycle s once it retires.
	Publish(seq int, s *Store) (StoreBackend, error)
	// InFlight reports whether a Publish's asynchronous work has not yet
	// been joined, so the runtime can skip a Barrier (and its clock read)
	// that has nothing to join.
	InFlight() bool
	// Barrier joins any asynchronous work of the previous Publish — the
	// write-behind serialization of a file publisher — and returns its
	// failure, if any, exactly once. The runtime calls it before freezing
	// the next store, so a publish error surfaces from the same Round that
	// would have exposed it under synchronous publishing. Synchronous
	// publishers return nil.
	Barrier() error
	// Close releases publisher-owned resources (e.g. a temporary store
	// directory) and aborts any asynchronous publish still in flight.
	// Backends already published must be closed separately.
	Close() error
}

// MemPublisher is the default, in-process publisher: the frozen store itself
// is the backend.
type MemPublisher struct{}

// Publish returns s unchanged.
func (MemPublisher) Publish(seq int, s *Store) (StoreBackend, error) { return s, nil }

// Barrier is a no-op: in-memory publishing is synchronous.
func (MemPublisher) Barrier() error { return nil }

// InFlight reports false: in-memory publishing never leaves asynchronous
// work behind, so the runtime can skip its per-round barrier entirely.
func (MemPublisher) InFlight() bool { return false }

// Close is a no-op.
func (MemPublisher) Close() error { return nil }
