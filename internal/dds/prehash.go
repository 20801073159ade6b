package dds

// Pre-hashed point reads.
//
// Every store routes a key to its shard with the same salted SplitMix64
// hash, and the runtime's per-machine read memo needs that exact hash as its
// own table key. Exposing the hash (HashOf) and a Get that accepts it
// (GetHashed) lets one hash computation serve both the cache probe and the
// store probe — the scalar Get path otherwise hashes every key twice, once
// in the caller's map and once in shardFor.

// HashOf returns the placement hash of k under salt — bit-for-bit the value
// the stores compute internally to route k to a shard.
func HashOf(k Key, salt uint64) uint64 { return hash(k, salt) }

// PrehashedGetter is an optional StoreBackend capability: a Get that reuses
// a hash the caller already computed with the store's salt (HashOf with
// StoreBackend.Salt). Results and load accounting are identical to Get.
type PrehashedGetter interface {
	GetHashed(k Key, h uint64) (Value, bool)
}

// GetHashed implements PrehashedGetter: exactly Get(k) given h = HashOf(k,
// s.Salt()), including the shard load charge.
func (s *Store) GetHashed(k Key, h uint64) (Value, bool) {
	sh := &s.shards[h%uint64(len(s.shards))]
	sh.load.Add(1)
	if sl := sh.find(k, h); sl != nil {
		return sh.first(sl), true
	}
	return Value{}, false
}

var _ PrehashedGetter = (*Store)(nil)
