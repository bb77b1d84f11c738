package core

// A Set costs its dependency levels, not its verbs: the round-and-verb
// budgets of the single-key write path, read off the memory node's verb
// counters and the virtual clock, the correctness of the eviction a store
// attempt prefetches (arms) when its allocator is dry, and of the occupant
// it displaces with its publishing CAS when both of the key's buckets are
// full.

import (
	"bytes"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/history"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// verbCount is the memory node's verb traffic between two snapshots.
// writes and faa include the asynchronous (unsignalled) ones, which async
// counts; batched is the verbs the doorbells carried.
type verbCount struct {
	reads, writes, cas, faa, rpcs, async, doorbells, batched int64
}

func verbsSince(n *rdma.Node, s0 rdma.Stats) verbCount {
	d := n.Stats
	return verbCount{
		reads: d.Reads - s0.Reads, writes: d.Writes - s0.Writes, cas: d.CASes - s0.CASes,
		faa: d.FAAs - s0.FAAs, rpcs: d.RPCs - s0.RPCs, async: d.AsyncOps - s0.AsyncOps,
		doorbells: d.DoorbellBatches - s0.DoorbellBatches, batched: d.BatchedVerbs - s0.BatchedVerbs,
	}
}

// big is a value that makes the object a 320-byte block, the size
// DefaultOptions budgets per expected object — so the heap fills before
// the table's buckets do.
func big(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 240) }

// fillUntilDry stores fresh keys until the pool is full (the client's
// first sampled eviction), and returns the next unused key index.
func fillUntilDry(t *testing.T, c *Client) int {
	t.Helper()
	i := 0
	for ; c.Stats.Evictions == c.Stats.BucketEvictions; i++ {
		if i > 100000 {
			t.Fatal("pool never filled")
		}
		c.Set(key(i), big(i))
	}
	return i
}

// TestSetRoundBudget pins what a lone operation costs in verbs, doorbells
// and round trips: a Get rings no doorbell; a clean insert is the bucket
// READ, then WRITE+CAS as one doorbell; an adaptive Set into a full cache
// is six verbs in THREE round trips — bucket READ + sample READ + history
// FAA (one doorbell), the victim CAS, WRITE + publish CAS (one doorbell).
func TestSetRoundBudget(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	n, rtt := cl.MN.Node, cl.MN.Node.Config().RTT
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("warm"), []byte("up")) // pulls the first segment

		s0, t0 := n.Stats, p.Now()
		c.Set([]byte("k"), []byte("v"))
		got, took := verbsSince(n, s0), p.Now()-t0
		want := verbCount{reads: 1, writes: 2, cas: 1, async: 1, doorbells: 1, batched: 2}
		if got != want {
			t.Errorf("clean insert: verbs %+v, want %+v", got, want)
		}
		if took >= 5*rtt/2 {
			t.Errorf("clean insert took %d ns, want under 2.5 RTT (%d)", took, 5*rtt/2)
		}

		s0 = n.Stats
		if _, ok := c.Get([]byte("k")); !ok {
			t.Fatal("k missing")
		}
		if got := verbsSince(n, s0); got.doorbells != 0 || got.reads != 2 {
			t.Errorf("Get: verbs %+v, want 2 READs and no doorbell", got)
		}

		// Into the full cache. The first Set whose counters say nothing
		// unusual happened — one eviction, no retry, no resample, no
		// allocator RPC — must have exactly the plain shape.
		next := fillUntilDry(t, c)
		for try := 0; ; try++ {
			if try == 8 {
				t.Fatal("no plain evicting Set in 8 tries")
			}
			st, s0, t0 := c.Stats, n.Stats, p.Now()
			c.Set(key(next+try), big(try))
			got, took := verbsSince(n, s0), p.Now()-t0
			if d := c.Stats; d.Evictions != st.Evictions+1 || d.SetRetries != st.SetRetries ||
				d.EvictResamples != st.EvictResamples || got.rpcs != 0 {
				continue
			}
			// 2 async WRITEs aside: the new slot's metadata, the history
			// entry's expert bitmap.
			want := verbCount{reads: 2, faa: 1, cas: 2, writes: 3, async: 2, doorbells: 2, batched: 5}
			if got != want {
				t.Errorf("Set into a full cache: verbs %+v, want %+v", got, want)
			}
			if took >= 7*rtt/2 {
				t.Errorf("Set into a full cache took %d ns, want under 3.5 RTT (%d)", took, 7*rtt/2)
			}
			break
		}
	})
	env.Run()
}

// fillBucketsOf fills both of k's buckets with live objects (fresh keys
// from index from on), so a Set of k must displace, and reports whether
// every occupant carries another fingerprint than k's — its walk is then
// two bucket READs and no object READ.
func fillBucketsOf(t *testing.T, c *Client, k []byte, from int) (plain bool) {
	t.Helper()
	lay, per := c.cl.Layout, c.cl.Options().SlotsPerBucket
	kh := hashtable.KeyHash(k)
	plain = true
	for _, b := range []int{lay.MainBucket(kh), lay.BackupBucket(kh)} {
		for _, fk := range bucketKeys(t, c.cl, b, per, from) {
			c.Set(fk, big(7))
		}
		for _, slot := range c.ht.ReadBucket(b) {
			if c.hist.Reclaimable(slot) {
				t.Fatalf("bucket %d still has a reclaimable slot", b)
			}
			plain = plain && (slot.Atomic.IsHistory() || slot.Atomic.FP() != hashtable.Fingerprint(kh))
		}
	}
	return plain
}

// TestDisplacingSetRoundBudget pins the Set that finds the cache full AND
// both of its buckets full: it stays on the three-round plan — bucket READ
// + sample READ + history FAA, bucket READ + victim CAS, WRITE + a
// publishing CAS that displaces the occupant it picked — with no retry
// and no CAS beyond those two. Configurations whose candidates carry
// metadata with the object pay ONE round more, for every candidate's READ
// in one doorbell.
func TestDisplacingSetRoundBudget(t *testing.T) {
	cases := []struct {
		name            string
		tenants, noSFHT bool
		rounds          int64 // every one a doorbell
	}{
		{name: "default", rounds: 3},
		{name: "tenant mode", tenants: true, rounds: 4},
		{name: "DisableSFHT", noSFHT: true, rounds: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			opts := DefaultOptions(1000, 1000*320)
			opts.DisableSFHT = tc.noSFHT
			cl := NewCluster(env, opts)
			if tc.tenants {
				cl.SetTenantQuota(1, 1<<40)
			}
			n, rtt := cl.MN.Node, cl.MN.Node.Config().RTT
			env.Go("c", func(p *sim.Proc) {
				c := cl.NewClient(p)
				c.BindTenant(1)
				next := fillUntilDry(t, c)
				// The first such Set whose counters say nothing else happened:
				// one sampled eviction, one displacement, no resample, no RPC.
				for try := 0; ; try++ {
					if try == 8 {
						t.Fatal("no plain displacing Set in 8 tries")
					}
					k := key(next + 1000*try)
					plain := fillBucketsOf(t, c, k, next+1000*try+1)
					st, s0, t0 := c.Stats, n.Stats, p.Now()
					c.Set(k, big(try))
					got, took := verbsSince(n, s0), p.Now()-t0
					if d := c.Stats; !plain || d.Evictions != st.Evictions+2 || d.BucketEvictions != st.BucketEvictions+1 ||
						d.EvictResamples != st.EvictResamples || got.rpcs != 0 {
						continue
					}
					if d := c.Stats.SetRetries - st.SetRetries; d != 0 {
						t.Errorf("%d retries, want 0", d)
					}
					if got.doorbells != tc.rounds || got.cas != 2 {
						t.Errorf("verbs %+v, want %d doorbells and 2 CASes", got, tc.rounds)
					}
					if limit := (2*tc.rounds + 1) * rtt / 2; took >= limit {
						t.Errorf("took %d ns, want under %d.5 RTT (%d)", took, tc.rounds, limit)
					}
					if v, ok := c.Get(k); !ok || !bytes.Equal(v, big(try)) {
						t.Error("the displacing Set's value is not readable")
					}
					break
				}
				if pub := publishedBytes(c); pub != cl.MN.UsedBytes {
					t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
				}
			})
			env.Run()
		})
	}
}

// mustArm returns a store attempt for (k, v) armed with an eviction,
// exactly as the store driver would arm it. While the free list still
// holds a block the driver hands the attempt that instead; an ordinary
// Set uses it up.
func mustArm(t *testing.T, c *Client, k, v []byte, spare *int) *setPlan {
	t.Helper()
	for try := 0; try < 8; try++ {
		pl := c.sets.get().reset(c, k, v)
		if c.arm(pl); pl.ev != nil {
			return pl
		}
		c.alloc.Free(pl.addr, pl.size) // the store driver's plan would stage it
		c.sets.put(pl)
		c.Set(key(*spare), v)
		*spare++
	}
	t.Fatal("allocator never dry")
	return nil
}

// publishedBytes is what the table's live slots point at, by size class.
func publishedBytes(c *Client) int {
	total := 0
	for i := 0; i < c.cl.Layout.NumSlots(); i++ {
		if a := c.ht.ReadSlot(c.cl.Layout.SlotAddr(i)).Atomic; !a.IsEmpty() && !a.IsHistory() {
			total += a.SizeBytes()
		}
	}
	return total
}

// bucketKeys returns n fresh keys whose main bucket is b.
func bucketKeys(t *testing.T, cl *Cluster, b, n, from int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := from; len(out) < n; i++ {
		if i > from+2000000 {
			t.Fatalf("no %d keys for bucket %d", n, b)
		}
		if cl.Layout.MainBucket(hashtable.KeyHash(key(i))) == b {
			out = append(out, key(i))
		}
	}
	return out
}

// scene is one hand-driven armed attempt: the client c storing k, and a
// rival o with its own key x of the same buckets.
type scene struct {
	c, o *Client
	k, x []byte
	pl   *setPlan
}

// fillBuckets is fillBucketsOf the scene's key, as a prepare step.
func fillBuckets(t *testing.T, s *scene, spare *int) { fillBucketsOf(t, s.c, s.k, *spare) }

// victimKey is the key of the occupant the attempt chose to displace.
func victimKey(s *scene) []byte {
	return append([]byte(nil), decodeObject(s.o.readObject(s.pl.victim.slot)).key...)
}

// TestArmedSetComplications drives one armed store attempt by hand — arm,
// run, settle, disarm, as the store driver does — with a rival client
// slipped between its groups, through every way the attempt, its
// prefetched eviction or its displacement can fail. Whatever happens, the
// heap accounts for exactly the published objects (neither a victim's
// block nor the staged one leaks or is freed twice — the node tracks every
// block's lifetime), the eviction plan is back in the pool, and when the
// attempt left a block on the free list the retry samples no further
// victim.
func TestArmedSetComplications(t *testing.T) {
	cases := []struct {
		name  string
		noLWH bool
		// prepare runs before the attempt is armed; hook ahead of every
		// Step, handed the state the plan is about to emit from.
		prepare        func(t *testing.T, s *scene, spare *int)
		hook           func(s *scene, st int, fired *int)
		outcome, evOut int
		stored         bool
		resamples      int64
		displaced      int64
	}{
		{
			name: "publish CAS lost",
			hook: func(s *scene, st int, fired *int) {
				// The eviction is done and the insert about to stage: the
				// rival's X takes the slot the walk claimed.
				if (st == sEvict || st == sWrite) && s.pl.ev.st == evDone && *fired == 0 {
					*fired++
					s.o.Set(s.x, big(9))
				}
			},
			outcome: setCASLost, evOut: evictWon,
		},
		{
			name: "victim CAS lost",
			hook: func(s *scene, st int, fired *int) {
				// The victim is nominated, its CAS the next group: the rival
				// removes it first, as a racing eviction or Delete would.
				if s.pl.ev.st == evCAS && *fired == 0 {
					*fired++
					v := s.pl.ev.victim
					if _, won := s.o.ht.CASAtomic(v.slot.Addr, v.slot.Atomic, 0); won {
						s.o.releaseBlock(v.slot.Atomic, v.slot.Addr, v.tenant)
					}
				}
			},
			outcome: setDone, evOut: evictLost, stored: true, resamples: 1,
		},
		{
			name: "empty sample window",
			hook: func(s *scene, st int, fired *int) {
				// Before the first group: the rival deletes every live key of
				// the window the eviction drew.
				if st != sScan || *fired != 0 {
					return
				}
				*fired++
				ev, lay := s.pl.ev, s.c.cl.Layout
				for i := ev.start; i < ev.start+ev.window; i++ {
					slot := s.o.ht.ReadSlot(lay.SlotAddr(i % lay.NumSlots()))
					if a := slot.Atomic; !a.IsEmpty() && !a.IsHistory() {
						s.o.Delete(append([]byte(nil), decodeObject(s.o.readObject(slot)).key...))
					}
				}
			},
			outcome: setDone, evOut: evictNone, stored: true, resamples: 1,
		},
		{
			// The attempt displaces an occupant with its publishing CAS and
			// settles both victims, the sampled one and the displaced one.
			name: "buckets full", prepare: fillBuckets,
			hook:    func(*scene, int, *int) {},
			outcome: setDone, evOut: evictWon, stored: true, displaced: 1,
		},
		{
			// The conventional-history ablation adds a round after the won
			// victim CAS; the displacing insert waits for it (sEvict).
			name: "buckets full, DisableLWH", noLWH: true, prepare: fillBuckets,
			hook:    func(*scene, int, *int) {},
			outcome: setDone, evOut: evictWon, stored: true, displaced: 1,
		},
		{
			// The occupant is chosen, WRITE + CAS the next group: the rival
			// updates it out of place. The CAS expects the old pointer and
			// loses; the occupant's new block is not ours to free.
			name: "displaced occupant updated first", prepare: fillBuckets,
			hook: func(s *scene, st int, fired *int) {
				if st == sWrite && s.pl.evicting && *fired == 0 {
					*fired++
					s.o.Set(victimKey(s), big(9))
				}
			},
			outcome: setCASLost, evOut: evictWon,
		},
		{
			// The same, but the rival removes the occupant, as a racing
			// eviction or Delete would: its block was freed once, by them.
			name: "displaced occupant evicted first", prepare: fillBuckets,
			hook: func(s *scene, st int, fired *int) {
				if st == sWrite && s.pl.evicting && *fired == 0 {
					*fired++
					s.o.Delete(victimKey(s))
				}
			},
			outcome: setCASLost, evOut: evictWon,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(3)
			opts := DefaultOptions(1000, 1000*320)
			opts.DisableLWH = tc.noLWH
			cl := NewCluster(env, opts)
			cl.MN.EnableFreeTracking()
			env.Go("c", func(p *sim.Proc) {
				s := &scene{c: cl.NewClient(p), o: cl.NewClient(p)}
				s.k, s.x, _, _ = walkKeys(t, cl)
				spare := 1000000
				fillUntilDry(t, s.c)
				s.c.Delete(s.k) // K and X absent: the attempt is an insert
				s.c.Delete(s.x)
				if tc.prepare != nil {
					tc.prepare(t, s, &spare)
				}
				s.pl = mustArm(t, s.c, s.k, big(1), &spare)
				ev, st0, fired := s.pl.ev, s.c.Stats, 0
				s.c.runner.Serial.Run(hookedPlan{s.pl, func(st int) { tc.hook(s, st, &fired) }})
				if s.pl.outcome != tc.outcome || ev.outcome != tc.evOut {
					t.Fatalf("attempt ended %d with its eviction %d, want %d with %d (hook fired %d times)",
						s.pl.outcome, ev.outcome, tc.outcome, tc.evOut, fired)
				}
				stored := s.c.settle(s.pl, true, p.Now())
				s.c.disarm(s.pl)
				s.c.sets.put(s.pl)
				if stored != tc.stored {
					t.Errorf("stored = %v, want %v", stored, tc.stored)
				}
				if got := s.c.Stats.EvictResamples - st0.EvictResamples; got != tc.resamples {
					t.Errorf("counted %d resamples, want %d", got, tc.resamples)
				}
				if got := s.c.Stats.BucketEvictions - st0.BucketEvictions; got != tc.displaced {
					t.Errorf("settled %d displaced occupants, want %d", got, tc.displaced)
				}
				if s.pl.ev != nil || len(s.c.evs.free) == 0 || s.c.evs.free[len(s.c.evs.free)-1] != ev {
					t.Error("the eviction plan did not go back to the pool")
				}
				if pub := publishedBytes(s.c); pub != cl.MN.UsedBytes {
					t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
				}

				// The retry, through the driver itself: a failed attempt left
				// its eviction's block on the free list.
				sampled := func() int64 { return s.c.Stats.Evictions - s.c.Stats.BucketEvictions }
				before := sampled()
				s.c.Set(s.k, big(2))
				if !tc.stored && sampled() != before {
					t.Error("the retry evicted again with the first attempt's block on the free list")
				}
				if v, ok := s.c.Get(s.k); !ok || !bytes.Equal(v, big(2)) {
					t.Errorf("K does not hold the retried value: ok=%v", ok)
				}
				if pub := publishedBytes(s.c); pub != cl.MN.UsedBytes {
					t.Errorf("after the retry: heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
				}
			})
			env.Run()
		})
	}
}

// TestArmedSetLongerChains runs Sets into a full cache under the two
// configurations that lengthen the prefetched eviction's chain — tenant
// mode (extension READs between the sample and the victim CAS) and the
// DisableLWH ablation (a conventional history's FAA+WRITE after it) — and
// checks each still completes in one attempt, four round trips, with its
// value readable and the heap exact.
func TestArmedSetLongerChains(t *testing.T) {
	for _, name := range []string{"tenant mode", "DisableLWH"} {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(5)
			opts := DefaultOptions(1000, 1000*320)
			opts.DisableLWH = name == "DisableLWH"
			cl := NewCluster(env, opts)
			if name == "tenant mode" {
				cl.SetTenantQuota(1, 1<<40)
			}
			rtt := cl.MN.Node.Config().RTT
			env.Go("c", func(p *sim.Proc) {
				c := cl.NewClient(p)
				c.BindTenant(1)
				next := fillUntilDry(t, c)
				plain := 0
				for i := 0; i < 64; i++ {
					st, s0, t0 := c.Stats, cl.MN.Node.Stats, p.Now()
					c.Set(key(next+i), big(i))
					took, rpcs := p.Now()-t0, verbsSince(cl.MN.Node, s0).rpcs
					if v, ok := c.Get(key(next + i)); !ok || !bytes.Equal(v, big(i)) {
						t.Fatalf("key %d unreadable right after its Set", next+i)
					}
					if d := c.Stats; d.Evictions != st.Evictions+1 || d.SetRetries != st.SetRetries ||
						d.EvictResamples != st.EvictResamples || rpcs != 0 {
						continue
					}
					plain++
					if took >= 9*rtt/2 {
						t.Errorf("Set %d took %d ns, want under 4.5 RTT (%d)", i, took, 9*rtt/2)
					}
				}
				if plain < 48 {
					t.Errorf("only %d of 64 Sets were plain prefetched evictions", plain)
				}
				if pub := publishedBytes(c); pub != cl.MN.UsedBytes {
					t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
				}
			})
			env.Run()
		})
	}
}

// TestArmedSetsLeakNothingUnderContention churns a small cache from many
// clients at once — lost victim CASes, lost publish CASes and full
// buckets all occur — and checks at quiescence that the heap accounts for
// exactly what the table publishes and no pooled store plan kept its
// eviction.
func TestArmedSetsLeakNothingUnderContention(t *testing.T) {
	const clients, sets = 8, 1500
	env := sim.NewEnv(11)
	cl := newTestCluster(env, 1000)
	var cs []*Client
	for id := 0; id < clients; id++ {
		id := id
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			cs = append(cs, c)
			rng := p.Rand()
			for i := 0; i < sets; i++ {
				c.Set(key(rng.Intn(6000)), big(id))
			}
		})
	}
	env.Run()
	var st Stats
	for _, c := range cs {
		st.Add(c.Stats)
		for _, pl := range c.sets.free {
			if pl.ev != nil {
				t.Error("a pooled store plan still holds its eviction")
			}
		}
	}
	if st.Evictions == 0 || st.EvictResamples == 0 || st.SetRetries == 0 {
		t.Fatalf("churn too tame to prove anything: %d evictions, %d resamples, %d retries",
			st.Evictions, st.EvictResamples, st.SetRetries)
	}
	env.Go("check", func(p *sim.Proc) {
		c := cl.NewClient(p)
		if pub := publishedBytes(c); pub != cl.MN.UsedBytes {
			t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
		}
	})
	env.Run()
}

// TestDisplaceOverwritesOldestHistory: two buckets holding nothing but
// valid history entries give up the entry closest to expiry — overwritten
// by the publishing CAS itself — and nothing else; no object is evicted
// for it.
func TestDisplaceOverwritesOldestHistory(t *testing.T) {
	env := sim.NewEnv(9)
	cl := newTestCluster(env, 1000) // a roomy heap: nothing else evicts
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		k := key(0)
		fillBucketsOf(t, c, k, 1)
		kh, lay := hashtable.KeyHash(k), cl.Layout
		// Evict every occupant into a history entry, oldest ID first — in
		// slot order, but for one slot in the middle that goes first.
		var slots []hashtable.Slot
		for _, b := range []int{lay.MainBucket(kh), lay.BackupBucket(kh)} {
			slots = append(slots, c.ht.ReadBucket(b)...)
		}
		const oldest = 11
		slots[0], slots[oldest] = slots[oldest], slots[0]
		entries := map[uint64]hashtable.AtomicField{}
		for _, s := range slots {
			id := c.hist.AbsorbID(c.ep.FAA(memnode.HistCounterAddr, 1))
			entry := history.EntryFor(s, id)
			if _, won := c.ht.CASAtomic(s.Addr, s.Atomic, entry); !won {
				t.Fatal("could not plant a history entry")
			}
			c.releaseBlock(s.Atomic, s.Addr, 0)
			entries[s.Addr] = entry
		}
		st := c.Stats
		c.Set(k, big(1))
		if d := c.Stats; d.Evictions != st.Evictions || d.BucketEvictions != st.BucketEvictions || d.SetRetries != st.SetRetries {
			t.Errorf("overwriting a history entry counted %d evictions, %d displaced, %d retries",
				d.Evictions-st.Evictions, d.BucketEvictions-st.BucketEvictions, d.SetRetries-st.SetRetries)
		}
		for addr, entry := range entries {
			switch now := c.ht.ReadSlot(addr).Atomic; {
			case addr == slots[0].Addr && (now.IsHistory() || now.IsEmpty()):
				t.Error("the oldest history entry is still there")
			case addr != slots[0].Addr && now != entry:
				t.Errorf("slot %#x changed: %#x, was the history entry %#x", addr, now, entry)
			}
		}
		if v, ok := c.Get(k); !ok || !bytes.Equal(v, big(1)) {
			t.Error("K is not readable")
		}
		if pub := publishedBytes(c); pub != cl.MN.UsedBytes {
			t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
		}
	})
	env.Run()
}

// TestEverySetDisplaces churns a four-bucket table under a roomy heap
// from eight clients of two tenants: nearly every insert finds both
// buckets full and displaces, many of them the same occupant at once. At
// quiescence no block leaked or was freed twice (the node tracks every
// lifetime), every live slot points at a well-formed image of a key that
// hashes to its bucket, and each tenant is charged exactly its published
// bytes — every displaced occupant was credited back to its owner.
func TestEverySetDisplaces(t *testing.T) {
	const clients, sets, tenants = 8, 400, 2
	env := sim.NewEnv(13)
	cl := NewCluster(env, DefaultOptions(8, 1<<20))
	cl.MN.EnableFreeTracking()
	for tn := 1; tn <= tenants; tn++ {
		cl.SetTenantQuota(TenantID(tn), 1<<40)
	}
	if n := cl.Layout.NumSlots() / cl.Options().SlotsPerBucket; n != 4 {
		t.Fatalf("table has %d buckets, want 4", n)
	}
	var st Stats
	for id := 0; id < clients; id++ {
		id := id
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			c.BindTenant(TenantID(1 + id%tenants))
			rng := p.Rand()
			for i := 0; i < sets; i++ {
				c.Set(key(rng.Intn(500)), big(id))
			}
			st.Add(c.Stats)
		})
	}
	env.Run()
	if st.BucketEvictions < clients*sets/2 || st.SetRetries == 0 {
		t.Fatalf("churn too tame to prove anything: %d displacements, %d retries in %d Sets",
			st.BucketEvictions, st.SetRetries, clients*sets)
	}
	env.Go("check", func(p *sim.Proc) {
		c := cl.NewClient(p)
		var charged [tenants + 1]int64
		blocks := map[uint64]bool{}
		for i := 0; i < cl.Layout.NumSlots(); i++ {
			s := c.ht.ReadSlot(cl.Layout.SlotAddr(i))
			if s.Atomic.IsEmpty() || s.Atomic.IsHistory() {
				continue
			}
			dec := decodeObject(c.readObject(s))
			kh := hashtable.KeyHash(dec.key)
			if b := i / cl.Options().SlotsPerBucket; !dec.ok || (cl.Layout.MainBucket(kh) != b && cl.Layout.BackupBucket(kh) != b) {
				t.Errorf("slot %d points at a block that is not an image of one of its keys", i)
				continue
			}
			if blocks[s.Atomic.Pointer()] {
				t.Errorf("two slots point at block %#x", s.Atomic.Pointer())
			}
			blocks[s.Atomic.Pointer()] = true
			charged[dec.tenant] += int64(s.Atomic.SizeBytes())
		}
		if cl.MN.LiveTrackedBlocks() != len(blocks) {
			t.Errorf("%d blocks allocated, %d published", cl.MN.LiveTrackedBlocks(), len(blocks))
		}
		for tn := range charged {
			if got := cl.TenantUsage(TenantID(tn)); got != charged[tn] {
				t.Errorf("tenant %d is charged %d bytes, publishes %d", tn, got, charged[tn])
			}
		}
	})
	env.Run()
}

// firstGroup runs a setPlan noting where the last verb of the first group
// it emits points.
type firstGroup struct {
	*setPlan
	seen bool
	last uint64
}

func (f *firstGroup) Step(eager bool) []exec.Verb {
	vs := f.setPlan.Step(eager)
	if !f.seen && len(vs) > 0 {
		f.seen, f.last = true, vs[len(vs)-1].Op.Addr
	}
	return vs
}

// TestFullSteadyCacheAsksTheControllerNothing: a thousand Sets into a
// full cache that nobody grows reach the memory node's CPU not once —
// the dry allocator's probe is a READ riding the Set's first doorbell —
// and memory that then appears, grown or surrendered by a departing
// client, is allocated from within one probe interval of Sets.
func TestFullSteadyCacheAsksTheControllerNothing(t *testing.T) {
	const probeInterval = 32 // memnode's poolProbeInterval
	env := sim.NewEnv(7)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c, leaver := cl.NewClient(p), cl.NewClient(p)
		var leaving []uint64 // the blocks the leaver will surrender
		for i := 0; i < 8; i++ {
			addr, _ := leaver.alloc.Alloc(320)
			leaving = append(leaving, addr)
		}
		next := fillUntilDry(t, c)
		// steady runs n Sets of fresh keys and returns the fullest the heap
		// got: a full cache's level, one block under it after a displacement.
		steady := func(n int) (peak int) {
			for i := 0; i < n; i++ {
				c.Set(key(next), big(i))
				next++
				peak = max(peak, cl.MN.UsedBytes)
			}
			return peak
		}
		steady(100)
		s0 := cl.MN.Node.Stats
		full := steady(1000)
		got := verbsSince(cl.MN.Node, s0)
		if got.rpcs != 0 {
			t.Errorf("1000 Sets into a full, steady cache made %d controller RPCs, want 0", got.rpcs)
		}
		// The probe that falls due rides the attempt's FIRST group, behind
		// the bucket READ and the eviction's sample, and is gone after it.
		for try := 0; ; try++ {
			if try > probeInterval {
				t.Fatal("no supply probe fell due in a whole interval of dry attempts")
			}
			pl := mustArm(t, c, key(next), big(try), &next)
			next++
			run := &firstGroup{setPlan: pl}
			due := pl.probe
			c.runner.Serial.Run(run)
			if due && (pl.probe || run.last != memnode.SupplyEpochAddr) {
				t.Errorf("the due probe did not ride the first group (its last verb is at %#x, still due: %v)", run.last, pl.probe)
			}
			c.settle(pl, true, p.Now())
			c.disarm(pl)
			c.sets.put(pl)
			if due {
				break
			}
		}

		// One probe interval, plus the Set the probe rides (the next one
		// allocates) and one that a displacement can have left the heap a
		// block under full.
		findsAbove := func(level int, what string) {
			for i := 0; cl.MN.UsedBytes <= level; i++ {
				if i == probeInterval+2 {
					t.Errorf("%s not allocated from within %d Sets", what, i)
					return
				}
				steady(1)
			}
		}
		cl.GrowCache(memnode.DefaultSegmentSize)
		findsAbove(full, "grown memory")
		for ev := c.Stats.Evictions; c.Stats.Evictions == ev; { // fill it
			steady(1)
		}
		full = steady(200)
		for _, addr := range leaving {
			leaver.alloc.Free(addr, 320)
		}
		leaver.surrenderFreeBlocks()
		findsAbove(full-len(leaving)*320, "surrendered memory")
	})
	env.Run()
}
