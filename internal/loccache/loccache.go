// Package loccache is the client-side location cache behind one-RTT
// speculative Gets: a per-client, bounded map from key to the remote
// location a live copy of that key was last observed at.
//
// A hint is a pure acceleration structure, never a source of truth. The
// read path uses it to issue ONE speculative READ of the remembered
// object block and then validates the returned image in place (inline
// key, incarnation stamp, tenant, lease expiry — see core's getPlan,
// speculative stage); any mismatch silently falls back to the ordinary
// two-RTT bucket walk. Correctness therefore never depends on hint
// invalidation: a stale hint costs one wasted READ, nothing more, so
// nothing in the system ever needs to find or update another client's
// cache.
//
// For the same reason the cache stores no key at all: entries are indexed
// by the key's 64-bit FNV-1a hash, and two keys that collide simply share
// one entry. The loser of a collision reads the other key's block, and the
// read path's inline key check rejects it exactly as it rejects any stale
// hint. What that buys is an index of machine words and a Record of a new
// key that copies and allocates nothing.
//
// The cache is zero-lock by construction, not by cleverness: it is owned
// by exactly one core.Client, which the simulation (like the paper's
// one-client-per-core model) runs in a single process, so reads and
// writes need no synchronization at all. The hot paths are also
// allocation-free: Lookup, Drop and Record are a hash of the key and
// map accesses on a uint64; only growth of the index and the arena up to
// their fixed capacity allocates.
//
// Bounded by a CLOCK (second-chance) policy over a fixed entry arena:
// Lookup marks the entry referenced, and an insert past capacity sweeps
// the clock hand to the first unreferenced entry, clearing marks as it
// passes. Eviction order is a function of the access sequence alone —
// no map iteration, no wall clock — keeping the simulation
// deterministic.
package loccache

// Hint is everything the speculative read path remembers about a key's
// last observed copy: where to READ (Addr/Len, the block address and its
// size-class bytes), how to validate what comes back (Ver, the image's
// unique incarnation stamp, and Tenant), and the slot-metadata snapshot
// (SlotAddr, InsertTs, LastTs, Freq) that lets a validated hit run the
// same asynchronous metadata maintenance as an ordinary hit without
// re-reading the bucket. Freq and LastTs are the client's own running
// estimate — refreshed on every hit, blind to other clients' accesses
// between refreshes — which is exactly the fidelity the eviction
// heuristics need and no more.
type Hint struct {
	Addr     uint64 // object block address on the memory node
	Len      int    // size-class bytes to READ (header + ext + key + value)
	Ver      uint64 // incarnation stamp of the observed image (never 0)
	Tenant   uint8  // tenant the image was stamped with
	SlotAddr uint64 // hash-table slot publishing the block
	InsertTs int64
	LastTs   int64
	Freq     uint64
}

// entry is one arena slot: the key's hash (what evict removes from the
// index), its hint, and the CLOCK reference bit.
type entry struct {
	hash uint64
	h    Hint
	ref  bool
}

// Cache is the bounded location cache. The zero value is not usable;
// construct with New.
type Cache struct {
	capacity int
	idx      map[uint64]int32 // key hash → arena slot
	ents     []entry
	free     []int32 // arena slots vacated by Drop, reused before eviction
	hand     int     // CLOCK hand over the arena
}

// New returns a cache bounded to capacity entries (capacity must be
// positive).
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("loccache: capacity must be positive")
	}
	return &Cache{
		capacity: capacity,
		idx:      make(map[uint64]int32, capacity),
		ents:     make([]entry, 0, capacity),
	}
}

// keyHash is 64-bit FNV-1a (hash/fnv's values, inlined: its constructor
// allocates, and this package imports nothing).
func keyHash(key []byte) uint64 {
	v := uint64(14695981039346656037)
	for _, b := range key {
		v ^= uint64(b)
		v *= 1099511628211
	}
	return v
}

// Lookup returns the hint recorded for key, marking the entry recently
// used. Allocation-free.
func (c *Cache) Lookup(key []byte) (Hint, bool) {
	i, ok := c.idx[keyHash(key)]
	if !ok {
		return Hint{}, false
	}
	e := &c.ents[i]
	e.ref = true
	return e.h, true
}

// Record stores (or refreshes) the hint for key. Allocation-free; a new
// key may evict the CLOCK victim when the cache is full.
func (c *Cache) Record(key []byte, h Hint) {
	kh := keyHash(key)
	if i, ok := c.idx[kh]; ok {
		e := &c.ents[i]
		e.h = h
		e.ref = true
		return
	}
	var i int32
	switch {
	case len(c.free) > 0:
		i, c.free = c.free[len(c.free)-1], c.free[:len(c.free)-1]
	case len(c.ents) < c.capacity:
		i = int32(len(c.ents))
		c.ents = append(c.ents, entry{})
	default:
		i = c.evict()
	}
	e := &c.ents[i]
	e.hash = kh
	e.h = h
	e.ref = true
	c.idx[kh] = i
}

// evict advances the CLOCK hand to the first unreferenced entry,
// clearing reference bits as it passes, removes that victim from the
// index and returns its arena slot. Terminates within one full sweep:
// after every bit is cleared the next entry is unreferenced.
func (c *Cache) evict() int32 {
	for {
		e := &c.ents[c.hand]
		if e.ref {
			e.ref = false
			c.hand = (c.hand + 1) % len(c.ents)
			continue
		}
		i := int32(c.hand)
		delete(c.idx, e.hash)
		c.hand = (c.hand + 1) % len(c.ents)
		return i
	}
}

// Drop forgets key's hint, if present. Allocation-free. Dropping is only
// ever an optimization (the dropped hint would have failed validation
// and fallen back); the read path calls it after a fallback whose walk
// found no copy to re-record, so the next Get goes straight to the bucket
// walk.
func (c *Cache) Drop(key []byte) {
	kh := keyHash(key)
	i, ok := c.idx[kh]
	if !ok {
		return
	}
	delete(c.idx, kh)
	c.ents[i] = entry{}
	c.free = append(c.free, i)
}

// Len returns the number of hints currently cached.
func (c *Cache) Len() int { return len(c.idx) }

// Cap returns the configured capacity bound.
func (c *Cache) Cap() int { return c.capacity }
