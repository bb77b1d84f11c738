package loccache

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func hint(i int) Hint {
	return Hint{Addr: uint64(i) * 64, Len: 64, Ver: uint64(i) + 1}
}

func TestRecordLookupRefresh(t *testing.T) {
	c := New(4)
	c.Record(key(1), hint(1))
	h, ok := c.Lookup(key(1))
	if !ok || h != hint(1) {
		t.Fatalf("Lookup = %+v, %v; want %+v, true", h, ok, hint(1))
	}
	if _, ok := c.Lookup(key(2)); ok {
		t.Fatalf("Lookup of unrecorded key succeeded")
	}
	// Refresh replaces the hint in place.
	c.Record(key(1), hint(9))
	if h, _ := c.Lookup(key(1)); h != hint(9) {
		t.Fatalf("after refresh, Lookup = %+v; want %+v", h, hint(9))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1", c.Len())
	}
}

// TestCapacityEviction pins the bound: inserting past capacity never
// grows the cache, and the CLOCK policy victimizes an unreferenced
// entry while keeping a recently-looked-up one.
func TestCapacityEviction(t *testing.T) {
	const capacity = 8
	c := New(capacity)
	for i := 0; i < capacity; i++ {
		c.Record(key(i), hint(i))
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d; want %d", c.Len(), capacity)
	}
	// Touch key 0 so it survives the first eviction sweep.
	c.Lookup(key(0))
	for i := capacity; i < 3*capacity; i++ {
		c.Record(key(i), hint(i))
		if c.Len() > capacity {
			t.Fatalf("Len = %d exceeds capacity %d after insert %d", c.Len(), capacity, i)
		}
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d; want %d (bounded)", c.Len(), capacity)
	}
	// The newest inserts must be present (they were just recorded).
	for i := 3*capacity - capacity/2; i < 3*capacity; i++ {
		if _, ok := c.Lookup(key(i)); !ok {
			t.Fatalf("recently recorded key %d was evicted", i)
		}
	}
}

func TestDropAndReuse(t *testing.T) {
	c := New(2)
	c.Record(key(1), hint(1))
	c.Record(key(2), hint(2))
	c.Drop(key(1))
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatalf("dropped key still resolves")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1 after drop", c.Len())
	}
	c.Drop(key(1)) // idempotent
	// The vacated slot is reused without evicting the survivor.
	c.Record(key(3), hint(3))
	if _, ok := c.Lookup(key(2)); !ok {
		t.Fatalf("survivor evicted although a dropped slot was free")
	}
	if _, ok := c.Lookup(key(3)); !ok {
		t.Fatalf("newly recorded key missing")
	}
}

// TestLookupAllocFree pins the zero-allocation contract of the hot
// path: Lookup and a refreshing Record.
func TestLookupAllocFree(t *testing.T) {
	c := New(16)
	k := key(1)
	c.Record(k, hint(1))
	h := hint(2)
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(k)
		c.Record(k, h)
	})
	if allocs != 0 {
		t.Fatalf("Lookup+refresh Record = %v allocs/op; want 0", allocs)
	}
}

// TestNewKeyAllocFree pins what storing no key buys: on a full cache,
// recording a key never seen before (evicting the CLOCK victim) and
// dropping it again allocate nothing.
func TestNewKeyAllocFree(t *testing.T) {
	const capacity = 16
	c := New(capacity)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, k := range keys[:capacity] {
		c.Record(k, hint(1))
	}
	next := capacity
	allocs := testing.AllocsPerRun(200, func() {
		c.Record(keys[next], hint(next))
		c.Record(keys[next+1], hint(next+1))
		c.Drop(keys[next])
		next += 2
	})
	if allocs != 0 {
		t.Fatalf("Record of new keys + Drop = %v allocs/op; want 0", allocs)
	}
	if c.Len() > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", c.Len(), capacity)
	}
}

// TestKeyHashIsFNV1a pins the index hash to hash/fnv's 64-bit FNV-1a, so
// the package comment's collision claim is about a known function.
func TestKeyHashIsFNV1a(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("a"), []byte("foobar"), key(123456)} {
		h := fnv.New64a()
		h.Write(in)
		if got, want := keyHash(in), h.Sum64(); got != want {
			t.Errorf("keyHash(%q) = %#x; hash/fnv says %#x", in, got, want)
		}
	}
}
