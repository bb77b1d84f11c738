// Package fccache implements Ditto's client-side frequency-counter (FC)
// cache (§4.2.2): a write-combining buffer for the RDMA_FAAs that keep the
// stateful freq counters in the memory pool up to date.
//
// Each Get/Set increments an object's freq counter. Issuing one RDMA_FAA
// per access consumes the RNIC message rate and contends on the RNIC's
// internal atomic locks, so — like write combining in modern processors —
// the FC cache buffers per-object deltas and flushes a combined delta with
// a single RDMA_FAA when either (a) the buffered delta reaches the
// threshold t, reducing FAAs by up to 1/t, or (b) the cache is full, in
// which case the entry with the earliest insert time is flushed.
package fccache

// FlushFunc applies a combined delta to the remote counter at addr
// (typically hashtable.Handle.FAAFreqAsync). The cache guarantees every
// buffered increment is handed to exactly one FlushFunc call — no delta
// is dropped or double-flushed — so the remote counter converges on the
// true count as flushes land, lagging by at most the buffered deltas.
type FlushFunc func(addr uint64, delta uint64)

// entryOverhead approximates per-entry bookkeeping bytes beyond the object
// ID (slot address + delta + insert time).
const entryOverhead = 24

// DefaultMaxLag bounds how many subsequent accesses an entry may buffer
// before being force-flushed. The paper tracks each entry's insert time
// "to ensure that the frequency counters in the memory pool do not lag too
// much" (§4.2.2); without this bound, mid-frequency objects would look
// permanently cold to LFU-family experts sampling the remote counters.
const DefaultMaxLag = 48

// entry is one buffered counter. Entries sit on an intrusive circular
// list in insertion order: insertAt is the monotone access counter, so
// the list's front is always the entry with the earliest insert time and
// any entry unlinks in O(1). A linked entry has non-nil prev and next.
type entry struct {
	addr       uint64
	delta      uint64
	insertAt   int64
	bytes      int
	prev, next *entry
}

// Cache is one client's FC cache. It is not safe for concurrent use; each
// Ditto client owns one (clients are sim processes, so this is free).
// Invariants the rest of the system leans on: the sum of all flushed
// deltas plus all still-buffered deltas equals Buffered (no increment is
// lost or duplicated); UsedBytes never exceeds the configured capacity
// after Add returns; and no entry buffers past the maxLag age bound, so
// a remote counter can lag its true value by at most threshold-1
// increments per client for at most maxLag of that client's accesses.
type Cache struct {
	capacityBytes int
	threshold     uint64
	maxLag        int64
	flush         FlushFunc
	entries       map[uint64]*entry
	order         entry    // list sentinel: order.next is the oldest entry, order.prev the newest
	free          []*entry // recycled entries: steady-state Add/evict churn allocates nothing
	usedBytes     int
	seq           int64

	// Buffered counts increments absorbed; Flushes counts FAAs issued.
	Buffered, Flushes int64
}

// New creates an FC cache of capacityBytes with flush threshold t.
// capacityBytes <= 0 disables buffering entirely (every Add flushes
// immediately — used by the ablation experiments).
func New(capacityBytes int, threshold uint64, flush FlushFunc) *Cache {
	if threshold < 1 {
		threshold = 1
	}
	c := &Cache{
		capacityBytes: capacityBytes,
		threshold:     threshold,
		maxLag:        DefaultMaxLag,
		flush:         flush,
		entries:       make(map[uint64]*entry),
	}
	c.order.prev, c.order.next = &c.order, &c.order
	return c
}

// oldest returns the entry with the earliest insert time, or nil when
// nothing is buffered.
func (c *Cache) oldest() *entry {
	if e := c.order.next; e != &c.order {
		return e
	}
	return nil
}

// remove unlinks a buffered entry from the list and the index and
// recycles it; the caller has already copied out what it needs.
func (c *Cache) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(c.entries, e.addr)
	c.usedBytes -= e.bytes
	c.free = append(c.free, e)
}

// SetMaxLag overrides the age bound (in subsequent Add operations) after
// which a buffered entry is force-flushed; lag <= 0 disables the bound.
// Lowering the bound takes effect on the next Add (existing over-age
// entries flush then, not immediately).
func (c *Cache) SetMaxLag(lag int64) { c.maxLag = lag }

// Len returns the number of buffered entries (each holding a non-zero
// pending delta — fully flushed entries leave the cache).
func (c *Cache) Len() int { return len(c.entries) }

// UsedBytes returns the buffered entries' footprint. It is <= the
// configured capacity whenever control is outside Add.
func (c *Cache) UsedBytes() int { return c.usedBytes }

// Add buffers a +1 for the freq counter at addr. idBytes is the object-ID
// size, which determines the entry's footprint (the paper sizes the FC
// cache in MB because entries vary with object-ID size). Add either
// buffers the increment or flushes a combined delta containing it —
// never both — so callers that need the key's logical frequency must
// read PendingDelta BEFORE calling Add (the noteHit/updateExt
// convention; reading after would double-count this access whenever it
// was buffered).
func (c *Cache) Add(addr uint64, idBytes int) {
	c.Buffered++
	c.seq++ // seq counts accesses: entry age is measured in accesses
	if c.capacityBytes <= 0 {
		c.Flushes++
		c.flush(addr, 1)
		return
	}
	if e, ok := c.entries[addr]; ok {
		e.delta++
		if e.delta >= c.threshold {
			c.evict(e)
		}
		return
	}
	var e *entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
		*e = entry{addr: addr, delta: 1, insertAt: c.seq, bytes: idBytes + entryOverhead}
	} else {
		e = &entry{addr: addr, delta: 1, insertAt: c.seq, bytes: idBytes + entryOverhead}
	}
	c.entries[addr] = e
	tail := c.order.prev
	e.prev, e.next = tail, &c.order
	tail.next, c.order.prev = e, e
	c.usedBytes += e.bytes
	for o := c.oldest(); o != nil && c.usedBytes > c.capacityBytes; o = c.oldest() {
		c.evict(o)
	}
	if e.next != nil && e.delta >= c.threshold { // still buffered: the capacity loop may have flushed e itself
		c.evict(e)
	}
	// Age-based flush: entries buffered for more than maxLag accesses are
	// pushed out so remote counters stay fresh.
	if c.maxLag > 0 {
		for o := c.oldest(); o != nil && c.seq-o.insertAt > c.maxLag; o = c.oldest() {
			c.evict(o)
		}
	}
}

// evict flushes one buffered entry's combined delta with a single FAA.
func (c *Cache) evict(e *entry) {
	addr, delta := e.addr, e.delta
	c.remove(e)
	c.Flushes++
	c.flush(addr, delta)
}

// FlushAll drains every buffered entry (used at client shutdown and by
// tests that need exact remote counters). Afterwards Len and
// PendingDelta are 0 for every address: the remote counters hold the
// complete count.
func (c *Cache) FlushAll() {
	for o := c.oldest(); o != nil; o = c.oldest() {
		c.evict(o)
	}
}

// PendingDelta reports the buffered delta for addr (0 if none) so read
// paths can correct for counter lag: remote snapshot + PendingDelta is
// the key's logical frequency as this client knows it. Must be read
// before Add buffers the current access (see Add).
func (c *Cache) PendingDelta(addr uint64) uint64 {
	if e, ok := c.entries[addr]; ok {
		return e.delta
	}
	return 0
}

// Forget drops any buffered delta for addr without flushing — the one
// deliberate exception to the nothing-is-dropped invariant, used when
// the owning slot was evicted or recycled and the counter no longer
// belongs to the same object (flushing would credit the new tenant with
// the old object's hits).
func (c *Cache) Forget(addr uint64) {
	if e, ok := c.entries[addr]; ok {
		c.remove(e)
	}
}
