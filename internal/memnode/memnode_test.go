package memnode

import (
	"testing"
	"testing/quick"

	"ditto/internal/rdma"
	"ditto/internal/sim"
)

func newTestMN(env *sim.Env, memBytes int) *MemNode {
	return New(env, Config{MemBytes: memBytes, Fabric: rdma.DefaultConfig()})
}

func TestSizeClass(t *testing.T) {
	cases := map[int]int{0: 64, 1: 64, 64: 64, 65: 128, 128: 128, 300: 320, 321: 384}
	for in, want := range cases {
		if got := SizeClass(in); got != want {
			t.Errorf("SizeClass(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPlaceTableLayout(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	addr := mn.PlaceTable(1000)
	if addr != headerBytes {
		t.Fatalf("table addr = %d", addr)
	}
	if mn.heapAddr%BlockSize != 0 {
		t.Fatalf("heap addr %d not block aligned", mn.heapAddr)
	}
	if mn.heapAddr < addr+1000 {
		t.Fatal("heap overlaps table")
	}
}

func TestAllocCarvesAndReuses(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		a1, ok := a.Alloc(256)
		if !ok {
			t.Fatal("alloc failed")
		}
		a2, ok := a.Alloc(256)
		if !ok || a2 == a1 {
			t.Fatalf("second alloc %d ok=%v", a2, ok)
		}
		if mn.UsedBytes != 512 {
			t.Fatalf("allocated = %d", mn.UsedBytes)
		}
		a.Free(a1, 256)
		a3, ok := a.Alloc(200) // same 256B class: must reuse a1
		if !ok || a3 != a1 {
			t.Fatalf("free-list reuse failed: got %d want %d", a3, a1)
		}
	})
	env.Run()
}

func TestSegmentRPCIsInfrequent(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		for i := 0; i < 100; i++ {
			if _, ok := a.Alloc(256); !ok {
				t.Fatal("alloc failed")
			}
		}
	})
	env.Run()
	// 100 × 256B = 25.6 KB < one 64 KB segment ⇒ exactly 1 RPC.
	if mn.Node.Stats.RPCs != 1 {
		t.Fatalf("RPCs = %d, want 1 (two-level scheme broken)", mn.Node.Stats.RPCs)
	}
}

func TestAllocExhaustionAndRecovery(t *testing.T) {
	env := sim.NewEnv(1)
	mn := New(env, Config{MemBytes: 64 * 1024 * 3, SegmentSize: 64 * 1024, Fabric: rdma.DefaultConfig()})
	mn.PlaceTable(BlockSize) // leaves just under 3 segments of heap
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		var addrs []uint64
		for {
			addr, ok := a.Alloc(1024)
			if !ok {
				break
			}
			addrs = append(addrs, addr)
		}
		if len(addrs) == 0 {
			t.Fatal("no allocations succeeded")
		}
		// After freeing one block, allocation of the same class succeeds.
		a.Free(addrs[0], 1024)
		if _, ok := a.Alloc(1024); !ok {
			t.Fatal("alloc after free failed")
		}
		// Distinct addresses.
		seen := map[uint64]bool{}
		for _, ad := range addrs {
			if seen[ad] {
				t.Fatalf("duplicate address %d", ad)
			}
			seen[ad] = true
		}
	})
	env.Run()
}

func TestFreeSegmentReturnsToController(t *testing.T) {
	env := sim.NewEnv(1)
	mn := New(env, Config{MemBytes: 64*1024 + 4096, SegmentSize: 64 * 1024, Fabric: rdma.DefaultConfig()})
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		r1 := ep.RPC(OpAllocSeg, nil)
		if r1[0] != 1 {
			t.Fatal("first segment alloc failed")
		}
		if r2 := ep.RPC(OpAllocSeg, nil); r2[0] != 0 {
			t.Fatal("second segment alloc should fail")
		}
		ep.RPC(OpFreeSeg, r1[1:9])
		if r3 := ep.RPC(OpAllocSeg, nil); r3[0] != 1 {
			t.Fatal("alloc after segment free failed")
		}
	})
	env.Run()
}

func TestGrowAndLimitHeap(t *testing.T) {
	env := sim.NewEnv(1)
	mn := New(env, Config{MemBytes: 1 << 20, Fabric: rdma.DefaultConfig()})
	mn.SetHeapLimit(128 * 1024)
	if got := mn.HeapBytes(); got != 128*1024 {
		t.Fatalf("heap = %d", got)
	}
	mn.GrowHeap(64 * 1024)
	if got := mn.HeapBytes(); got != 192*1024 {
		t.Fatalf("heap after grow = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("grow beyond region did not panic")
		}
	}()
	mn.GrowHeap(1 << 30)
}

func TestDoubleFreePanics(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		addr, _ := a.Alloc(64)
		a.Free(addr, 64)
		defer func() {
			if recover() == nil {
				t.Error("double free did not panic")
			}
		}()
		a.Free(addr, 64)
	})
	env.Run()
}

// Property: alloc/free sequences never hand out overlapping live blocks.
func TestNoOverlapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv(3)
		ok := true
		mn := newTestMN(env, 1<<20)
		env.Go("c", func(p *sim.Proc) {
			ep := rdma.NewEndpoint(mn.Node, p)
			a := NewAlloc(mn, ep)
			type blk struct {
				addr uint64
				size int
			}
			var live []blk
			for _, op := range ops {
				size := int(op%7+1) * 64
				if op%3 == 0 && len(live) > 0 {
					b := live[len(live)-1]
					live = live[:len(live)-1]
					a.Free(b.addr, b.size)
					continue
				}
				addr, got := a.Alloc(size)
				if !got {
					continue
				}
				for _, b := range live {
					if addr < b.addr+uint64(SizeClass(b.size)) && b.addr < addr+uint64(SizeClass(size)) {
						ok = false
					}
				}
				live = append(live, blk{addr, size})
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSurrenderedBlocksRecycled(t *testing.T) {
	env := sim.NewEnv(3)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	mn.SetHeapLimit(DefaultSegmentSize) // exactly one segment of heap
	env.Go("c", func(p *sim.Proc) {
		// Client 1 takes the whole segment, frees everything, and leaves.
		a1 := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		var blocks []uint64
		for {
			addr, ok := a1.Alloc(256)
			if !ok {
				break
			}
			blocks = append(blocks, addr)
		}
		if len(blocks) == 0 {
			t.Fatal("nothing allocated")
		}
		for _, addr := range blocks {
			a1.Free(addr, 256)
		}
		a1.Surrender()
		if a1.FreeBlocks() != 0 {
			t.Fatalf("%d blocks still parked locally after Surrender", a1.FreeBlocks())
		}

		// Client 2 has no segment and the controller has none left either:
		// without the surrendered pool this alloc would strand the heap.
		a2 := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		addr, ok := a2.Alloc(256)
		if !ok {
			t.Fatal("surrendered space not recycled to a new client")
		}
		found := false
		for _, b := range blocks {
			if b == addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("recycled addr %d is not one of the surrendered blocks", addr)
		}

		// That one request was granted poolGrant blocks: the next ones come
		// off the local free list, no RPC — and only the allocated count as
		// used.
		if a2.FreeBlocks() != poolGrant-1 {
			t.Fatalf("%d blocks parked after one pool request, want %d", a2.FreeBlocks(), poolGrant-1)
		}
		rpcs := mn.Node.Stats.RPCs
		for i := 1; i < poolGrant; i++ {
			if _, ok := a2.Alloc(256); !ok {
				t.Fatalf("alloc %d of the grant failed", i)
			}
		}
		if mn.Node.Stats.RPCs != rpcs {
			t.Errorf("%d RPCs for the rest of the grant, want none", mn.Node.Stats.RPCs-rpcs)
		}
		if mn.UsedBytes != poolGrant*256 {
			t.Errorf("UsedBytes = %d after %d allocations of 256", mn.UsedBytes, poolGrant)
		}

		// A thin pool grants half of what it holds, rounded up: three
		// blocks serve two more writers, 2 then 1.
		mn.blockPool[256] = mn.blockPool[256][:3]
		for _, want := range []int{1, 0} {
			a := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
			if _, ok := a.AllocFromPool(256); !ok || a.FreeBlocks() != want {
				t.Errorf("thin pool: ok=%v with %d parked, want %d", ok, a.FreeBlocks(), want)
			}
		}
	})
	env.Run()
}

// TestFreeTrackingCatchesFirstBadFree: with tracking enabled, the very
// first double free panics with the offending address — even when other
// live allocations keep UsedBytes positive (which the net-accounting
// check alone would miss).
func TestFreeTrackingCatchesFirstBadFree(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.EnableFreeTracking()
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		addr1, _ := a.Alloc(100)
		addr2, _ := a.Alloc(100)
		_ = addr2 // stays live: UsedBytes never goes negative below
		if mn.LiveTrackedBlocks() != 2 {
			t.Fatalf("live tracked = %d, want 2", mn.LiveTrackedBlocks())
		}
		a.Free(addr1, 100)
		defer func() {
			if recover() == nil {
				t.Error("double free with a live sibling did not panic")
			}
		}()
		a.Free(addr1, 100)
	})
	env.Run()
}

// TestFreeTrackingWrongClass: freeing a block with the wrong size class
// is caught (it would corrupt a real free list).
func TestFreeTrackingWrongClass(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.EnableFreeTracking()
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		addr, _ := a.Alloc(100) // class 128
		defer func() {
			if recover() == nil {
				t.Error("wrong-class free did not panic")
			}
		}()
		a.Free(addr, 300) // class 320
	})
	env.Run()
}

// TestFreeTrackingReset: ResetFreeTracking forgets old incarnation
// addresses (a restarted node's heap starts over).
func TestFreeTrackingReset(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.EnableFreeTracking()
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		a := NewAlloc(mn, ep)
		a.Alloc(64)
		mn.ResetFreeTracking()
		if mn.LiveTrackedBlocks() != 0 {
			t.Errorf("live tracked after reset = %d", mn.LiveTrackedBlocks())
		}
	})
	env.Run()
}

// TestSupplyEpochGatesTheController pins the dry allocator's protocol: a
// client the controller refused fails locally and probes the supply word
// with a one-sided READ every poolProbeInterval-th dry Alloc — no RPC
// reaches the controller until memory can have appeared — and finds a
// grown heap or a surrendered free list within one probe interval, asking
// only the level whose counter moved.
func TestSupplyEpochGatesTheController(t *testing.T) {
	env := sim.NewEnv(5)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	mn.SetHeapLimit(DefaultSegmentSize)
	env.Go("c", func(p *sim.Proc) {
		// Only allocators talk to this node, so every RPC it serves is a
		// segment or a pool request.
		rpcs := func() int64 { return mn.Node.Stats.RPCs }
		a := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		fill := func() (got []uint64) {
			for {
				addr, ok := a.Alloc(256)
				if !ok {
					return got
				}
				got = append(got, addr)
			}
		}
		// dryUntil counts the dry Allocs before one succeeds.
		dryUntil := func() int {
			for n := 0; n <= 2*poolProbeInterval; n++ {
				if _, ok := a.Alloc(256); ok {
					return n
				}
			}
			t.Fatal("new supply never found")
			return 0
		}
		first := fill()

		// Steady and full: 1 000 dry Allocs, not one request served, a READ
		// per probe interval.
		s0 := mn.Node.Stats
		for i := 0; i < 1000; i++ {
			if _, ok := a.Alloc(256); ok {
				t.Fatal("a full heap granted a block")
			}
		}
		if got := rpcs() - s0.RPCs; got != 0 {
			t.Errorf("a full, steady heap served %d allocator requests, want none", got)
		}
		if got := mn.Node.Stats.Reads - s0.Reads; got != 1000/poolProbeInterval {
			t.Errorf("%d probe READs in 1000 dry Allocs, want %d", got, 1000/poolProbeInterval)
		}

		// TryAlloc leaves the due probe to its caller and issues nothing;
		// an unmoved word changes nothing.
		s0 = mn.Node.Stats
		due := 0
		for i := 0; i < poolProbeInterval; i++ {
			if _, ok, probe := a.TryAlloc(256); ok {
				t.Fatal("a full heap granted a block")
			} else if probe {
				due++
				word := make([]byte, 8)
				copy(word, mn.Node.Mem()[SupplyEpochAddr:])
				if a.AbsorbSupply(word) {
					t.Error("an unmoved supply word read as moved")
				}
			}
		}
		if due != 1 || mn.Node.Stats.Total() != s0.Total() {
			t.Errorf("TryAlloc: %d probes due in one interval and %d verbs issued, want 1 and 0",
				due, mn.Node.Stats.Total()-s0.Total())
		}

		// A grown heap: found within one probe interval, by asking for a
		// segment only.
		r0, segs := rpcs(), mn.SegAllocs
		mn.GrowHeap(DefaultSegmentSize)
		if n := dryUntil(); n >= poolProbeInterval {
			t.Errorf("grown heap found after %d dry Allocs, want under %d", n, poolProbeInterval)
		}
		if rpcs() != r0+1 || mn.SegAllocs != segs+1 {
			t.Errorf("finding the grown segment took %d requests for %d segments, want 1 for 1",
				rpcs()-r0, mn.SegAllocs-segs)
		}
		fill()

		// A departed client's surrendered free list: found within one probe
		// interval, by asking the pool only — no segment became grantable.
		other := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		for _, addr := range first[:poolGrant] {
			other.Free(addr, 256)
		}
		other.Surrender()
		r0 = rpcs()
		if n := dryUntil(); n >= poolProbeInterval {
			t.Errorf("surrendered blocks found after %d dry Allocs, want under %d", n, poolProbeInterval)
		}
		if rpcs() != r0+1 || a.FreeBlocks() == 0 {
			t.Errorf("finding the surrendered blocks took %d requests and parked %d blocks, want 1 pool grant",
				rpcs()-r0, a.FreeBlocks())
		}

		// The reclaimer's stall loop asks the pool outright, refused or not.
		fill()
		r0 = rpcs()
		for i := 0; i < 3; i++ {
			if _, ok := a.AllocFromPool(256); ok {
				t.Fatal("an empty pool granted a block")
			}
		}
		if rpcs() != r0+3 {
			t.Errorf("AllocFromPool reached the controller %d times in 3 calls", rpcs()-r0)
		}
	})
	env.Run()
}

// TestPoolRefusalIsPerClass: the pool is kept per size class, and so is
// what a client remembers of its refusals. Blocks of one class sitting in
// the pool are granted to a client that is refused — at the current
// counter — for another, and the class that has nothing stays off the
// controller.
func TestPoolRefusalIsPerClass(t *testing.T) {
	env := sim.NewEnv(5)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	mn.SetHeapLimit(DefaultSegmentSize)
	env.Go("c", func(p *sim.Proc) {
		rpcs := func() int64 { return mn.Node.Stats.RPCs }
		a := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		var small []uint64
		for i := 0; i < 4; i++ {
			addr, _ := a.Alloc(128)
			small = append(small, addr)
		}
		for {
			if _, ok := a.Alloc(256); !ok {
				break
			}
		}
		// A departed client surrenders class-128 blocks only. The probes of
		// two dry intervals see the pool counter move and ask for 256 again:
		// refused, now at the counter the 128s arrived at.
		other := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		for _, addr := range small {
			other.Free(addr, 128)
		}
		other.Surrender()
		for i := 0; i < 2*poolProbeInterval; i++ {
			if _, ok := a.Alloc(256); ok {
				t.Fatal("a pool without class-256 blocks granted one")
			}
		}
		r0 := rpcs()
		if _, ok := a.Alloc(128); !ok || rpcs() != r0+1 {
			t.Errorf("Alloc(128) beside a refused class 256: ok=%v after %d requests, want a grant from 1", ok, rpcs()-r0)
		}
		r0 = rpcs()
		if _, ok := a.Alloc(256); ok || rpcs() != r0 {
			t.Errorf("class 256, still refused, reached the controller %d times (ok=%v)", rpcs()-r0, ok)
		}
	})
	env.Run()
}

// TestPrefetchGrantHidesThePoolRoundTrip pins the pool-fed writer's
// refill: PrefetchGrant posts the next grant only once it is certain to
// be needed (list empty, no segment to be had, class not refused, nothing
// in flight), the Alloc that needs it waits for what is left of the round
// trip — nothing, one Set later — and no block is lost to a grant still
// in flight at Surrender.
func TestPrefetchGrantHidesThePoolRoundTrip(t *testing.T) {
	env := sim.NewEnv(5)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	mn.SetHeapLimit(DefaultSegmentSize)
	mn.EnableFreeTracking()
	env.Go("c", func(p *sim.Proc) {
		rpcs := func() int64 { return mn.Node.Stats.RPCs }
		a := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		var held []uint64
		for {
			addr, ok := a.Alloc(256)
			if !ok {
				break
			}
			held = append(held, addr)
		}
		other := NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
		for _, addr := range held[:4*poolGrant] {
			other.Free(addr, 256)
		}
		other.Surrender()
		// drain empties a's class-256 list.
		drain := func() {
			for a.FreeBlocks() > 0 {
				if _, ok := a.Alloc(256); !ok {
					t.Fatal("a parked block was not allocated")
				}
			}
		}
		posted := func(why string, want int64, f func()) {
			t.Helper()
			r0, t0 := rpcs(), p.Now()
			f()
			if rpcs()-r0 != want || p.Now() != t0 {
				t.Errorf("%s: %d requests posted in %dns, want %d in 0", why, rpcs()-r0, p.Now()-t0, want)
			}
		}

		posted("class refused", 0, func() { a.PrefetchGrant(256) })
		if _, ok := a.AllocFromPool(256); !ok { // clears the refusal, parks the rest of the grant
			t.Fatal("a stocked pool refused")
		}
		posted("list not empty", 0, func() { a.PrefetchGrant(256) })
		drain()
		posted("list empty", 1, func() { a.PrefetchGrant(256) })
		posted("one already in flight", 0, func() { a.PrefetchGrant(256) })

		// A Set's worth of time later the grant has arrived: the Alloc that
		// needs it neither waits nor asks.
		p.Sleep(10 * sim.Microsecond)
		posted("collecting an arrived grant", 0, func() {
			if _, ok := a.Alloc(256); !ok {
				t.Error("the prefetched grant was not allocated from")
			}
		})

		// Needed at once, the Alloc waits the round trip out — one request,
		// not two.
		drain()
		r0, t0 := rpcs(), p.Now()
		a.PrefetchGrant(256)
		if _, ok := a.Alloc(256); !ok || rpcs() != r0+1 || p.Now() == t0 {
			t.Errorf("Alloc right behind its prefetch: ok=%v, %d requests, %dns", ok, rpcs()-r0, p.Now()-t0)
		}

		// A grant in flight at Surrender goes back to the pool with the rest.
		drain()
		a.PrefetchGrant(256)
		a.Surrender()
		if got, want := len(mn.blockPool[256])+a.FreeBlocks(), len(held)-mn.LiveTrackedBlocks(); got != want {
			t.Errorf("%d class-256 blocks pooled or parked, want the %d not live", got, want)
		}
	})
	env.Run()
}

// TestSupplyCountersWrapApart: each half of the supply epoch wraps on its
// own; a pool counter rolling over must not read as a segment appearing.
func TestSupplyCountersWrapApart(t *testing.T) {
	mn := newTestMN(sim.NewEnv(1), 1<<20)
	mn.Node.PutUint64At(SupplyEpochAddr, 7<<32|0xffffffff)
	mn.bumpSupply(supplyPool)
	if got := mn.Node.Uint64At(SupplyEpochAddr); got != 7<<32 {
		t.Errorf("pool counter wrap: word = %#x, want %#x", got, uint64(7<<32))
	}
	mn.Node.PutUint64At(SupplyEpochAddr, 0xffffffff<<32|5)
	mn.bumpSupply(supplySeg)
	if got := mn.Node.Uint64At(SupplyEpochAddr); got != 5 {
		t.Errorf("segment counter wrap: word = %#x, want 0x5", got)
	}
}

// TestReclaimLag: the reclaimer's wake condition and the size of its
// rounds both read the distance of free space under the low watermark —
// negative above it, clamped with the watermark to a quarter of the heap.
func TestReclaimLag(t *testing.T) {
	env := sim.NewEnv(1)
	mn := newTestMN(env, 1<<20)
	mn.PlaceTable(256)
	mn.SetHeapLimit(4 * DefaultSegmentSize)
	heap := mn.HeapBytes()
	mn.SetWatermarks(heap/16, heap/8)
	if mn.BelowLowWater() || mn.ReclaimLag() != heap/16-heap {
		t.Errorf("empty heap: below=%v lag=%d, want above the watermark by all but %d", mn.BelowLowWater(), mn.ReclaimLag(), heap/16)
	}
	mn.UsedBytes = heap - heap/16 + 3*BlockSize
	if !mn.BelowLowWater() || mn.ReclaimLag() != 3*BlockSize {
		t.Errorf("3 blocks under the watermark: below=%v lag=%d", mn.BelowLowWater(), mn.ReclaimLag())
	}
	mn.SetWatermarks(heap/2, heap)
	mn.UsedBytes = heap - heap/4
	if mn.BelowLowWater() || mn.ReclaimLag() != 0 {
		t.Errorf("watermark clamped to a quarter of the heap: below=%v lag=%d, want level with it", mn.BelowLowWater(), mn.ReclaimLag())
	}
}
