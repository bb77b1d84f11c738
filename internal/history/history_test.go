package history

import (
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/sim"
)

func setup(t *testing.T) (*sim.Env, *memnode.MemNode, hashtable.Layout) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := hashtable.Config{Buckets: 8, SlotsPerBucket: 8}
	mn := memnode.New(env, memnode.Config{MemBytes: cfg.Bytes() + 1<<20, Fabric: rdma.DefaultConfig()})
	base := mn.PlaceTable(cfg.Bytes())
	return env, mn, hashtable.Layout{Config: cfg, Base: base}
}

// nextID and insert compose the plan-facing pieces synchronously, in the
// order the eviction plan issues them across its groups: the ID's FAA
// (beside the sample READ), then the victim CAS, then the post-CAS
// effects.
func (c *Client) nextID() uint64 {
	op := c.NextIDOp()
	return c.AbsorbID(c.ep.FAA(op.Addr, op.Delta))
}

func (c *Client) insert(victim hashtable.Slot, expertBitmap uint64) (uint64, bool) {
	id := c.nextID()
	if _, ok := c.ht.CASAtomic(victim.Addr, victim.Atomic, EntryFor(victim, id)); !ok {
		return id, false
	}
	c.FinishInsert(victim.Addr, expertBitmap)
	return id, true
}

func TestNextIDMonotoneAcrossClients(t *testing.T) {
	env, mn, lay := setup(t)
	var ids []uint64
	for i := 0; i < 4; i++ {
		env.Go("c", func(p *sim.Proc) {
			ep := rdma.NewEndpoint(mn.Node, p)
			h := NewClient(ep, hashtable.NewHandle(lay, ep), 100)
			for k := 0; k < 5; k++ {
				ids = append(ids, h.nextID())
			}
		})
	}
	env.Run()
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate history ID %d", id)
		}
		seen[id] = true
	}
	if len(ids) != 20 {
		t.Fatalf("got %d ids", len(ids))
	}
}

func TestExpiryWindow(t *testing.T) {
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		h := NewClient(ep, hashtable.NewHandle(lay, ep), 10)
		first := h.nextID()
		for i := 0; i < 10; i++ {
			h.nextID()
		}
		// Counter is now first+11; distance 11 > l=10 ⇒ expired.
		if !h.IsExpired(first) {
			t.Errorf("entry at distance 11 not expired (counter=%d)", h.cachedCounter)
		}
		if h.IsExpired(first + 5) {
			t.Error("entry at distance 6 wrongly expired")
		}
	})
	env.Run()
}

func TestExpiryWrapAround(t *testing.T) {
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		h := NewClient(ep, hashtable.NewHandle(lay, ep), 10)
		// Force the counter near the 48-bit wrap point.
		mn.Node.PutUint64At(memnode.HistCounterAddr, (1<<48)-3)
		h.RefreshCounter()
		oldID := uint64((1 << 48) - 5) // distance 2 ⇒ valid
		if h.IsExpired(oldID) {
			t.Error("pre-wrap entry at distance 2 expired")
		}
		// Advance the counter past the wrap.
		for i := 0; i < 8; i++ {
			h.nextID()
		}
		// Counter wrapped to 5; distance to oldID = 10 ⇒ still valid.
		if h.IsExpired(oldID) {
			t.Errorf("entry exactly at capacity expired (counter=%d)", h.cachedCounter)
		}
		h.nextID()
		if !h.IsExpired(oldID) {
			t.Error("entry past capacity across wrap not expired")
		}
	})
	env.Run()
}

func TestInsertAndMatchRegret(t *testing.T) {
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		ht := hashtable.NewHandle(lay, ep)
		h := NewClient(ep, ht, 100)

		kh := hashtable.KeyHash([]byte("victim-key"))
		slotAddr := lay.SlotAddr(3)
		obj := hashtable.EncodeAtomic(hashtable.Fingerprint(kh), 4, 0x2000)
		if _, ok := ht.CASAtomic(slotAddr, 0, obj); !ok {
			t.Fatal("setup insert failed")
		}
		ht.WriteMetaOnInsert(slotAddr, kh, 1, 1, 1)

		victim := ht.ReadSlot(slotAddr)
		id, ok := h.insert(victim, 0b10)
		if !ok {
			t.Fatal("history insert failed")
		}

		entry := ht.ReadSlot(slotAddr)
		bitmap, age, matched := h.Match(entry, kh)
		if !matched {
			t.Fatal("regret not matched")
		}
		if bitmap != 0b10 {
			t.Fatalf("bitmap = %b", bitmap)
		}
		if age != h.Age(id) {
			t.Fatalf("age = %d", age)
		}

		// Wrong hash must not match.
		if _, _, m := h.Match(entry, kh+1); m {
			t.Fatal("matched wrong key hash")
		}
		// Ordinary object slots must not match.
		if _, _, m := h.Match(victim, kh); m {
			t.Fatal("matched a non-history slot")
		}
	})
	env.Run()
}

func TestInsertLosesRace(t *testing.T) {
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		ht := hashtable.NewHandle(lay, ep)
		h := NewClient(ep, ht, 100)
		kh := hashtable.KeyHash([]byte("k"))
		slotAddr := lay.SlotAddr(0)
		obj := hashtable.EncodeAtomic(hashtable.Fingerprint(kh), 4, 0x2000)
		ht.CASAtomic(slotAddr, 0, obj)
		victim := ht.ReadSlot(slotAddr)
		// Another client deletes the object before our CAS.
		ht.CASAtomic(slotAddr, obj, 0)
		if _, ok := h.insert(victim, 1); ok {
			t.Fatal("insert should lose the race")
		}
	})
	env.Run()
}

func TestReclaimable(t *testing.T) {
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		ht := hashtable.NewHandle(lay, ep)
		h := NewClient(ep, ht, 2)

		if !h.Reclaimable(hashtable.Slot{}) {
			t.Error("empty slot not reclaimable")
		}
		kh := hashtable.KeyHash([]byte("x"))
		obj := hashtable.Slot{Atomic: hashtable.EncodeAtomic(1, 4, 0x40)}
		if h.Reclaimable(obj) {
			t.Error("live object reclaimable")
		}

		slotAddr := lay.SlotAddr(1)
		a := hashtable.EncodeAtomic(hashtable.Fingerprint(kh), 4, 0x2000)
		ht.CASAtomic(slotAddr, 0, a)
		ht.WriteMetaOnInsert(slotAddr, kh, 1, 1, 1)
		victim := ht.ReadSlot(slotAddr)
		h.insert(victim, 1)
		fresh := ht.ReadSlot(slotAddr)
		if h.Reclaimable(fresh) {
			t.Error("fresh history entry reclaimable")
		}
		// Age it out: capacity is 2, so 3 more IDs expire it.
		h.nextID()
		h.nextID()
		h.nextID()
		if !h.Reclaimable(fresh) {
			t.Error("expired history entry not reclaimable")
		}
	})
	env.Run()
}

func TestHistoryInsertVerbBudget(t *testing.T) {
	// §4.3.1: inserting a history entry costs 1 FAA + 1 CAS + 1 async
	// WRITE. The FAA comes first and unconditionally (the eviction plan
	// posts it beside its sample READ), so an attempt that loses its CAS
	// has spent the FAA and nothing else: its ID is skipped, and the
	// entries before it age by one position.
	env, mn, lay := setup(t)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(mn.Node, p)
		ht := hashtable.NewHandle(lay, ep)
		h := NewClient(ep, ht, 100)
		kh := hashtable.KeyHash([]byte("v"))
		slotAddr := lay.SlotAddr(2)
		live := hashtable.EncodeAtomic(hashtable.Fingerprint(kh), 4, 0x2000)
		ht.CASAtomic(slotAddr, 0, live)
		victim := ht.ReadSlot(slotAddr)

		budget := func(what string, run func(), faa, cas, writes, async int64) {
			t.Helper()
			s0 := mn.Node.Stats
			run()
			d := mn.Node.Stats
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"FAAs", d.FAAs - s0.FAAs, faa},
				{"CASes", d.CASes - s0.CASes, cas},
				{"Writes", d.Writes - s0.Writes, writes},
				{"async verbs", d.AsyncOps - s0.AsyncOps, async},
				{"Reads", d.Reads - s0.Reads, 0},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s = %d, want %d", what, c.name, c.got, c.want)
				}
			}
		}

		stale := victim
		stale.Atomic = hashtable.EncodeAtomic(hashtable.Fingerprint(kh), 4, 0x4000)
		var lostID uint64
		budget("lost insert", func() {
			var ok bool
			if lostID, ok = h.insert(stale, 1); ok {
				t.Fatal("insert over a stale snapshot won its CAS")
			}
		}, 1, 1, 0, 0)

		var id uint64
		budget("won insert", func() {
			var ok bool
			if id, ok = h.insert(victim, 1); !ok {
				t.Fatal("history insert failed")
			}
		}, 1, 1, 1, 1)
		if id != lostID+1 {
			t.Errorf("won insert got ID %d after the lost attempt's %d, want the next one", id, lostID)
		}
		if h.Inserts != 1 {
			t.Errorf("Inserts = %d, want 1 (the lost attempt created no entry)", h.Inserts)
		}
	})
	env.Run()
}
