package fccache

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

type flushLog struct {
	addrs  []uint64
	deltas []uint64
}

func (f *flushLog) fn(addr, delta uint64) {
	f.addrs = append(f.addrs, addr)
	f.deltas = append(f.deltas, delta)
}

func (f *flushLog) total() uint64 {
	var s uint64
	for _, d := range f.deltas {
		s += d
	}
	return s
}

func TestThresholdFlush(t *testing.T) {
	log := &flushLog{}
	c := New(1<<20, 10, log.fn)
	for i := 0; i < 9; i++ {
		c.Add(100, 8)
	}
	if len(log.deltas) != 0 {
		t.Fatalf("flushed before threshold: %v", log.deltas)
	}
	c.Add(100, 8) // 10th increment hits t=10
	if len(log.deltas) != 1 || log.deltas[0] != 10 || log.addrs[0] != 100 {
		t.Fatalf("flush log = %+v", log)
	}
	if c.Len() != 0 {
		t.Fatal("entry not removed after flush")
	}
}

func TestCombiningReducesFAAsByThreshold(t *testing.T) {
	// The paper's claim: RDMA_FAAs reduced to up to 1/t.
	log := &flushLog{}
	c := New(1<<20, 10, log.fn)
	const accesses = 1000
	for i := 0; i < accesses; i++ {
		c.Add(42, 8)
	}
	c.FlushAll()
	if c.Flushes != accesses/10 {
		t.Fatalf("flushes = %d, want %d", c.Flushes, accesses/10)
	}
	if log.total() != accesses {
		t.Fatalf("lost increments: flushed %d of %d", log.total(), accesses)
	}
}

func TestCapacityEvictsEarliestInsert(t *testing.T) {
	log := &flushLog{}
	// Room for ~2 entries of (8+24)=32 bytes.
	c := New(64, 1000, log.fn)
	c.Add(1, 8)
	c.Add(2, 8)
	c.Add(3, 8) // overflows: entry for addr 1 (earliest) must flush
	if len(log.addrs) != 1 || log.addrs[0] != 1 {
		t.Fatalf("flush log = %+v", log)
	}
}

func TestDisabledCacheFlushesImmediately(t *testing.T) {
	log := &flushLog{}
	c := New(0, 10, log.fn)
	c.Add(7, 8)
	c.Add(7, 8)
	if len(log.deltas) != 2 || log.deltas[0] != 1 {
		t.Fatalf("disabled cache buffered: %+v", log)
	}
}

func TestPendingDeltaAndForget(t *testing.T) {
	log := &flushLog{}
	c := New(1<<20, 100, log.fn)
	c.Add(5, 8)
	c.Add(5, 8)
	if d := c.PendingDelta(5); d != 2 {
		t.Fatalf("pending = %d", d)
	}
	if d := c.PendingDelta(6); d != 0 {
		t.Fatalf("pending for absent = %d", d)
	}
	c.Forget(5)
	if c.Len() != 0 || len(log.deltas) != 0 {
		t.Fatal("forget flushed or kept the entry")
	}
	c.FlushAll()
	if len(log.deltas) != 0 {
		t.Fatal("forgotten entry flushed")
	}
}

func TestFlushAllDrainsEverything(t *testing.T) {
	log := &flushLog{}
	c := New(1<<20, 100, log.fn)
	for a := uint64(0); a < 20; a++ {
		for i := uint64(0); i <= a%5; i++ {
			c.Add(a, 8)
		}
	}
	c.FlushAll()
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatalf("len=%d used=%d after FlushAll", c.Len(), c.UsedBytes())
	}
}

// Property: no increment is ever lost or duplicated — the sum of flushed
// deltas equals the number of Adds (after FlushAll), for arbitrary access
// streams, capacities and thresholds.
func TestConservationProperty(t *testing.T) {
	f := func(addrs []uint8, capKB uint8, threshold uint8) bool {
		log := &flushLog{}
		c := New(int(capKB)*64, uint64(threshold%16)+1, log.fn)
		for _, a := range addrs {
			c.Add(uint64(a), 8)
		}
		c.FlushAll()
		return log.total() == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: per-address conservation holds as well.
func TestPerAddressConservationProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		got := map[uint64]uint64{}
		c := New(256, 5, func(a, d uint64) { got[a] += d })
		want := map[uint64]uint64{}
		for _, a := range addrs {
			want[uint64(a)]++
			c.Add(uint64(a), 8)
		}
		c.FlushAll()
		if len(got) != len(want) && len(addrs) > 0 {
			// got may have fewer keys only if want has zero-count keys —
			// impossible here, so lengths must match when non-empty.
			return false
		}
		for a, w := range want {
			if got[a] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// heapCache is the min-heap implementation the insertion-order list
// replaced, kept verbatim (minus the entry free list and the counters)
// as the reference for flush order: which entry leaves, with what delta,
// and when.
type heapCache struct {
	capacityBytes int
	threshold     uint64
	maxLag        int64
	flush         FlushFunc
	entries       map[uint64]*heapEntry
	order         entryHeap
	usedBytes     int
	seq           int64
}

type heapEntry struct {
	addr     uint64
	delta    uint64
	insertAt int64
	bytes    int
	index    int
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].insertAt < h[j].insertAt }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x interface{}) {
	e := x.(*heapEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (c *heapCache) Add(addr uint64, idBytes int) {
	c.seq++
	if c.capacityBytes <= 0 {
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
	e := &heapEntry{addr: addr, delta: 1, insertAt: c.seq, bytes: idBytes + entryOverhead}
	c.entries[addr] = e
	heap.Push(&c.order, e)
	c.usedBytes += e.bytes
	for c.usedBytes > c.capacityBytes && len(c.order) > 0 {
		c.evict(c.order[0])
	}
	if e.delta >= c.threshold {
		c.evict(e)
	}
	if c.maxLag > 0 {
		for len(c.order) > 0 && c.seq-c.order[0].insertAt > c.maxLag {
			c.evict(c.order[0])
		}
	}
}

func (c *heapCache) evict(e *heapEntry) {
	if _, live := c.entries[e.addr]; !live {
		return
	}
	heap.Remove(&c.order, e.index)
	delete(c.entries, e.addr)
	c.usedBytes -= e.bytes
	c.flush(e.addr, e.delta)
}

func (c *heapCache) FlushAll() {
	for len(c.order) > 0 {
		c.evict(c.order[0])
	}
}

func (c *heapCache) Forget(addr uint64) {
	if e, ok := c.entries[addr]; ok {
		heap.Remove(&c.order, e.index)
		delete(c.entries, addr)
		c.usedBytes -= e.bytes
	}
}

// flushEvent is one line of a flush transcript: after how many
// operations of the replayed sequence the FAA left, and what it carried.
type flushEvent struct {
	op          int
	addr, delta uint64
}

// TestFlushOrderMatchesHeap replays seeded random Add/Forget/FlushAll
// sequences, over capacities from "disabled" to "never full", thresholds
// from 1 up and every age bound, against the heap reference and
// requires identical flush transcripts and identical observable state
// (Len, UsedBytes, PendingDelta) after every operation.
func TestFlushOrderMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{0, 20, 40, 200, 1000, 1 << 20}[rng.Intn(6)]
		threshold := uint64(1 + rng.Intn(12))
		maxLag := []int64{0, 1, 5, DefaultMaxLag}[rng.Intn(4)]
		addrs := uint64(1 + rng.Intn(60))

		var op int
		var got, want []flushEvent
		c := New(capacity, threshold, func(a, d uint64) { got = append(got, flushEvent{op, a, d}) })
		c.SetMaxLag(maxLag)
		ref := &heapCache{
			capacityBytes: capacity, threshold: threshold, maxLag: maxLag,
			flush:   func(a, d uint64) { want = append(want, flushEvent{op, a, d}) },
			entries: map[uint64]*heapEntry{},
		}
		for op = 0; op < 600; op++ {
			addr := rng.Uint64() % addrs
			switch r := rng.Intn(100); {
			case r < 85:
				idBytes := 8 + rng.Intn(32)
				c.Add(addr, idBytes)
				ref.Add(addr, idBytes)
			case r < 98:
				c.Forget(addr)
				ref.Forget(addr)
			default:
				c.FlushAll()
				ref.FlushAll()
			}
			if c.Len() != len(ref.entries) || c.UsedBytes() != ref.usedBytes {
				t.Fatalf("seed %d op %d: Len/UsedBytes = %d/%d, heap reference %d/%d",
					seed, op, c.Len(), c.UsedBytes(), len(ref.entries), ref.usedBytes)
			}
			var pending uint64
			if e, ok := ref.entries[addr]; ok {
				pending = e.delta
			}
			if d := c.PendingDelta(addr); d != pending {
				t.Fatalf("seed %d op %d: PendingDelta(%d) = %d, heap reference %d", seed, op, addr, d, pending)
			}
		}
		c.FlushAll()
		ref.FlushAll()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (cap %d, t %d, lag %d): flush transcript differs from the heap reference\n got %v\nwant %v",
				seed, capacity, threshold, maxLag, got, want)
		}
		if int64(len(got)) != c.Flushes {
			t.Fatalf("seed %d: Flushes = %d, transcript has %d", seed, c.Flushes, len(got))
		}
	}
}
