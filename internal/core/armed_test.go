package core

// A Set costs its dependency levels, not its verbs: the round-and-verb
// budgets of the single-key write path, read off the memory node's verb
// counters and the virtual clock, and the correctness of the eviction a
// store attempt prefetches (arms) when its allocator is dry.

import (
	"bytes"
	"testing"

	"ditto/internal/hashtable"
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
		c.disarm(pl)
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

// fillBuckets fills both of k's buckets with live objects, so the
// attempt's walk ends setNoFree.
func fillBuckets(t *testing.T, s *scene, spare *int) {
	lay, per := s.c.cl.Layout, s.c.cl.Options().SlotsPerBucket
	kh := hashtable.KeyHash(s.k)
	for _, b := range []int{lay.MainBucket(kh), lay.BackupBucket(kh)} {
		for _, fk := range bucketKeys(t, s.c.cl, b, per, *spare) {
			s.c.Set(fk, big(7))
		}
	}
	for _, b := range []int{lay.MainBucket(kh), lay.BackupBucket(kh)} {
		for _, slot := range s.c.ht.ReadBucket(b) {
			if s.c.hist.Reclaimable(slot) {
				t.Fatalf("bucket %d still has a reclaimable slot", b)
			}
		}
	}
}

// TestArmedSetComplications drives one armed store attempt by hand — arm,
// run, settle, disarm, as the store driver does — with a rival client
// slipped between its groups, through every way the attempt or its
// prefetched eviction can fail. Whatever happens, the heap accounts for
// exactly the published objects (neither the victim's block nor the
// staged one leaks), the eviction plan is back in the pool, and when the
// attempt left a block on the free list the retry evicts nothing more.
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
			name: "buckets full", prepare: fillBuckets,
			hook:    func(*scene, int, *int) {},
			outcome: setNoFree, evOut: evictWon,
		},
		{
			// The conventional-history ablation adds a round after the won
			// victim CAS; the walk ends before it runs. The victim was
			// settled at its CAS, so dropping the rest leaks nothing.
			name: "buckets full, DisableLWH", noLWH: true, prepare: fillBuckets,
			hook:    func(*scene, int, *int) {},
			outcome: setNoFree, evOut: evictWon,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(3)
			opts := DefaultOptions(1000, 1000*320)
			opts.DisableLWH = tc.noLWH
			cl := NewCluster(env, opts)
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
				if s.pl.ev != nil || len(s.c.evs.free) == 0 || s.c.evs.free[len(s.c.evs.free)-1] != ev {
					t.Error("the eviction plan did not go back to the pool")
				}
				if pub := publishedBytes(s.c); pub != cl.MN.UsedBytes {
					t.Errorf("heap holds %d live bytes, the table publishes %d", cl.MN.UsedBytes, pub)
				}

				// The retry, through the driver itself: a failed attempt left
				// its eviction's block on the free list.
				before := s.c.Stats.Evictions
				s.c.Set(s.k, big(2))
				if !tc.stored && s.c.Stats.Evictions != before {
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

// TestArmedSetsStillDiscoverGrownHeap pins why the allocator's dryness
// peek counts against its segment back-off: a client whose every Set
// prefetches its eviction never fails an Alloc, so without the count it
// would never re-ask the controller — and never find memory added by
// GrowCache. Within one back-off period of Sets it must.
func TestArmedSetsStillDiscoverGrownHeap(t *testing.T) {
	env := sim.NewEnv(7)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		next := fillUntilDry(t, c)
		used := cl.MN.UsedBytes
		cl.MN.GrowHeap(4 * memnode.DefaultSegmentSize)
		for i := 0; i < 600; i++ { // > segRetryInterval dry Sets
			c.Set(key(next+i), big(i))
		}
		if cl.MN.UsedBytes < used+memnode.DefaultSegmentSize {
			t.Errorf("heap holds %d bytes after growing, %d before: the grown memory was never found", cl.MN.UsedBytes, used)
		}
	})
	env.Run()
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
