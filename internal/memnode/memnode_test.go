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
