// Package history implements Ditto's lightweight eviction history
// (§4.3.1): the record of "who evicted what" that the distributed adaptive
// caching scheme mines for regrets.
//
// Monolithic adaptive caches keep an actual FIFO queue plus a hash index
// of history entries. On DM both would cost extra round trips, so Ditto:
//
//   - embeds history entries in the sample-friendly hash table itself: an
//     evicted object's slot is CASed from (fp|size|pointer) to
//     (fp|0xFF|historyID), its hash field is left in place for regret
//     matching, and the insert_ts field is reused for the expert bitmap;
//   - replaces the FIFO queue with a *logical* one built from a global
//     48-bit circular counter in MN memory: each entry's history ID is a
//     position in a logical ring, and an entry is expired once the counter
//     has advanced more than the history capacity past it (lazy eviction —
//     expired entries are simply reclaimed by later inserts).
//
// An ID is acquired BEFORE its eviction is known to happen: the FAA
// depends on nothing the eviction learns, so the eviction plan posts it
// beside its sample READ instead of paying a round trip for it between
// nomination and the victim CAS. An attempt that then finds no candidate
// or loses its CAS leaves its ID unused. That is sound because the queue
// is only logical: nothing ever walks the IDs, an entry's age and expiry
// are counter DISTANCE, and a skipped ID merely ages the entries before
// it by one position — the capacity l bounds how many IDs an entry
// survives, so the queue holds l entries less however many IDs were
// skipped while they aged (about one in a hundred under churn).
package history

import (
	"ditto/internal/hashtable"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
)

// counterMask keeps IDs within the 48-bit circular space (the pointer
// field of a slot holds 6 bytes).
const counterMask = (uint64(1) << 48) - 1

// Client is one Ditto client's view of the eviction history.
type Client struct {
	ep       *rdma.Endpoint
	ht       *hashtable.Handle
	capacity uint64 // l: logical FIFO queue length (entries)

	// cachedCounter is the last observed global counter value. FAAs on
	// insert refresh it for free; expiry checks use it (slight staleness is
	// safe: it only delays expiry by at most the staleness).
	cachedCounter uint64

	// Inserts and Expired count history entries created and entries
	// detected expired during validity checks.
	Inserts, Expired int64
}

// NewClient creates a history client over the given endpoint/table with a
// FIFO capacity of l entries. The paper sets l to the cache size in
// objects (following LeCaR).
func NewClient(ep *rdma.Endpoint, ht *hashtable.Handle, l int) *Client {
	if l < 1 {
		panic("history: capacity must be >= 1")
	}
	return &Client{ep: ep, ht: ht, capacity: uint64(l)}
}

// Capacity returns l.
func (c *Client) Capacity() uint64 { return c.capacity }

// NextIDOp returns the RDMA_FAA verb that atomically fetches-and-
// increments the global history counter, acquiring a history ID; the
// eviction verb plan posts it beside its sample READ. Feed the
// completion's old value to AbsorbID.
func (c *Client) NextIDOp() rdma.BatchOp {
	return rdma.BatchOp{Kind: rdma.BatchFAA, Addr: memnode.HistCounterAddr, Delta: 1}
}

// AbsorbID folds a NextIDOp completion (the FAA's old value) into the
// client's cached counter — inserts refresh it for free — and returns the
// acquired history ID.
func (c *Client) AbsorbID(old uint64) uint64 {
	v := old & counterMask
	c.cachedCounter = (v + 1) & counterMask
	return v
}

// EntryFor builds the history-entry atomic field that replaces a
// victim's slot: same fingerprint, the history size sentinel, and the
// acquired ID in the pointer bits — the swap value of the eviction plan's
// victim CAS.
func EntryFor(victim hashtable.Slot, id uint64) hashtable.AtomicField {
	return hashtable.EncodeAtomic(victim.Atomic.FP(), hashtable.SizeHistory, id)
}

// FinishInsert applies the post-CAS effects of a history insert (the
// plan's EntryFor CAS already won): the asynchronous RDMA_WRITE of the
// expert bitmap into the insert_ts field, and the insert count. A history
// insert is NextIDOp/AbsorbID + the EntryFor CAS + FinishInsert: one
// RDMA_FAA, one RDMA_CAS, one asynchronous RDMA_WRITE (§4.3.1).
func (c *Client) FinishInsert(victimAddr uint64, expertBitmap uint64) {
	c.ht.WriteExpertBitmap(victimAddr, expertBitmap)
	c.Inserts++
}

// RefreshCounter reads the global counter (one RDMA_READ); normally
// unnecessary because inserts refresh it, but exposed for clients that
// only ever look up.
func (c *Client) RefreshCounter() uint64 {
	buf := c.ep.Read(memnode.HistCounterAddr, 8)
	v := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40
	c.cachedCounter = v & counterMask
	return c.cachedCounter
}

// IsExpired reports whether a history ID has logically left the FIFO
// queue, honouring 48-bit wrap-around (§4.3.1's validity check with
// v1, v2 and l).
func (c *Client) IsExpired(id uint64) bool {
	d := (c.cachedCounter - id) & counterMask
	expired := d > c.capacity
	if expired {
		c.Expired++
	}
	return expired
}

// Age returns the entry's logical position in the FIFO queue (0 = newest);
// the regret penalty discount d^t uses it as t.
func (c *Client) Age(id uint64) uint64 {
	return (c.cachedCounter - id) & counterMask
}

// Match inspects a slot encountered during lookup and reports whether it
// is a valid (unexpired) history entry for the key hash — i.e. a regret.
// The expert bitmap and the entry's age are returned for weight updates.
func (c *Client) Match(slot hashtable.Slot, keyHash uint64) (bitmap uint64, age uint64, ok bool) {
	if !slot.Atomic.IsHistory() || slot.Hash != keyHash {
		return 0, 0, false
	}
	id := slot.Atomic.Pointer()
	if c.IsExpired(id) {
		return 0, 0, false
	}
	return uint64(slot.InsertTs), c.Age(id), true
}

// Reclaimable reports whether a slot may be treated as empty by an insert:
// truly empty, an expired history entry (lazy eviction), or a consumed
// history entry whose hash was cleared after its regret was collected.
func (c *Client) Reclaimable(slot hashtable.Slot) bool {
	if slot.Atomic.IsEmpty() {
		return true
	}
	if !slot.Atomic.IsHistory() {
		return false
	}
	if slot.Hash == 0 {
		return true
	}
	return c.IsExpired(slot.Atomic.Pointer())
}

// ClearHash marks a history entry consumed after its regret has been
// collected (one asynchronous RDMA_WRITE zeroing the hash field), so the
// same miss cannot be penalized twice and inserts may reclaim the slot —
// the embedded-history equivalent of LeCaR deleting a history entry on a
// history hit.
func (c *Client) ClearHash(slotAddr uint64) {
	c.ht.WriteMetaOnInsert(slotAddr, 0, 0, 0, 0)
}
