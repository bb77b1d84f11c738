package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/sim"
)

// findSlot locates the live slot holding k (test helper; assumes no
// fingerprint collision in the small test tables).
func findSlot(t *testing.T, c *Client, k []byte) hashtable.Slot {
	t.Helper()
	kh := hashtable.KeyHash(k)
	fp := hashtable.Fingerprint(kh)
	for _, b := range [2]int{c.cl.Layout.MainBucket(kh), c.cl.Layout.BackupBucket(kh)} {
		for _, s := range c.ht.ReadBucket(b) {
			if !s.Atomic.IsEmpty() && !s.Atomic.IsHistory() && s.Atomic.FP() == fp {
				return s
			}
		}
	}
	t.Fatalf("slot for %q not found", k)
	return hashtable.Slot{}
}

func TestMGetAllHitUsesTwoDoorbells(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		keys := make([][]byte, 64)
		for i := range keys {
			keys[i] = key(i)
			c.Set(keys[i], value(i))
		}
		before := cl.MN.Node.Stats
		vals, oks := c.MGet(keys)
		after := cl.MN.Node.Stats
		for i := range keys {
			if !oks[i] || !bytes.Equal(vals[i], value(i)) {
				t.Fatalf("key %d: ok=%v", i, oks[i])
			}
		}
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 2 {
			t.Errorf("all-hit MGet used %d doorbell batches, want 2", d)
		}
		if c.Stats.Hits != int64(len(keys)) || c.Stats.Misses != 0 {
			t.Errorf("stats = %+v", c.Stats)
		}

		// An all-miss batch needs only the bucket doorbell.
		before = cl.MN.Node.Stats
		_, oks = c.MGet([][]byte{[]byte("nope-1"), []byte("nope-2")})
		after = cl.MN.Node.Stats
		if oks[0] || oks[1] {
			t.Error("phantom hit")
		}
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 1 {
			t.Errorf("all-miss MGet used %d doorbell batches, want 1", d)
		}
	})
	env.Run()
}

// runBatchOrSeq drives one client through a deterministic mixed workload,
// either with MSet/MGet/MDelete batches or with per-key Set/Get/Delete,
// and returns every Get and Delete observation in order.
func runBatchOrSeq(t *testing.T, batched bool) []string {
	env := sim.NewEnv(7)
	cl := newTestCluster(env, 4000) // oversized: no evictions, so runs compare exactly
	var out []string
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 40; round++ {
			pairs := make([]KV, 8)
			for j := range pairs {
				k := rng.Intn(300)
				pairs[j] = KV{Key: key(k), Value: value(k + round)}
			}
			gets := make([][]byte, 16)
			for j := range gets {
				gets[j] = key(rng.Intn(400)) // beyond 300: guaranteed misses
			}
			dels := make([][]byte, 6)
			for j := range dels {
				dels[j] = key(rng.Intn(350))
			}
			if batched {
				c.MSet(pairs)
				vs, oks := c.MGet(gets)
				for j := range gets {
					if oks[j] {
						out = append(out, string(vs[j]))
					} else {
						out = append(out, "MISS")
					}
				}
				for _, ok := range c.MDelete(dels) {
					out = append(out, fmt.Sprintf("DEL=%v", ok))
				}
			} else {
				for _, kv := range pairs {
					c.Set(kv.Key, kv.Value)
				}
				for _, g := range gets {
					if v, ok := c.Get(g); ok {
						out = append(out, string(v))
					} else {
						out = append(out, "MISS")
					}
				}
				for _, d := range dels {
					out = append(out, fmt.Sprintf("DEL=%v", c.Delete(d)))
				}
			}
		}
		if c.Stats.Hits+c.Stats.Misses != 40*16 {
			t.Errorf("gets accounted = %d, want %d", c.Stats.Hits+c.Stats.Misses, 40*16)
		}
		if c.Stats.Deletes != 40*6 {
			t.Errorf("deletes accounted = %d, want %d", c.Stats.Deletes, 40*6)
		}
	})
	env.Run()
	return out
}

// TestMGetMSetMatchSequential pins observable equivalence: the batched
// pipelines (MGet, MSet, MDelete) must return exactly what per-key
// Get/Set/Delete return on the same deterministic operation sequence.
func TestMGetMSetMatchSequential(t *testing.T) {
	batched := runBatchOrSeq(t, true)
	serial := runBatchOrSeq(t, false)
	if len(batched) != len(serial) {
		t.Fatalf("op counts differ: %d vs %d", len(batched), len(serial))
	}
	for i := range batched {
		if batched[i] != serial[i] {
			t.Fatalf("op %d: batched=%q serial=%q", i, batched[i], serial[i])
		}
	}
}

// TestMDeleteDoorbellBudget pins the batched delete pipeline's shape: an
// all-present batch costs three doorbells (bucket READs, object READs,
// delete CASes), an all-absent batch only the bucket doorbell, and the
// flags match what sequential Deletes would report.
func TestMDeleteDoorbellBudget(t *testing.T) {
	env := sim.NewEnv(8)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		keys := make([][]byte, 32)
		for i := range keys {
			keys[i] = key(i)
			c.Set(keys[i], value(i))
		}
		before := cl.MN.Node.Stats
		oks := c.MDelete(keys)
		after := cl.MN.Node.Stats
		for i, ok := range oks {
			if !ok {
				t.Errorf("key %d not reported deleted", i)
			}
		}
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 3 {
			t.Errorf("all-present MDelete used %d doorbell batches, want 3", d)
		}
		if cl.MN.UsedBytes != 0 {
			t.Errorf("leak: %d bytes after MDelete of everything", cl.MN.UsedBytes)
		}
		before = cl.MN.Node.Stats
		oks = c.MDelete(keys) // second time: nothing left
		after = cl.MN.Node.Stats
		for i, ok := range oks {
			if ok {
				t.Errorf("key %d deleted twice", i)
			}
		}
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 1 {
			t.Errorf("all-absent MDelete used %d doorbell batches, want 1", d)
		}
		if c.Stats.Deletes != 64 {
			t.Errorf("deletes = %d, want 64", c.Stats.Deletes)
		}
	})
	env.Run()
}

func TestMSetDuplicateKeysLastWriteWins(t *testing.T) {
	env := sim.NewEnv(2)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.MSet([]KV{
			{Key: key(1), Value: value(10)},
			{Key: key(1), Value: value(20)},
			{Key: key(1), Value: value(30)},
		})
		v, ok := c.Get(key(1))
		if !ok || !bytes.Equal(v, value(30)) {
			t.Fatalf("duplicate-key MSet: ok=%v", ok)
		}
	})
	env.Run()
}

// TestNoteHitReadsPendingDeltaBeforeAdd is the regression test for the
// frequency double count: the logical frequency reported to experts on a
// hit must be remote snapshot + buffered delta + 1, with the pending
// delta read BEFORE the current hit is buffered. The buggy ordering
// (fc.Add first) folded the current hit into the pending delta and
// yielded snapshot + delta + 2 for every buffered hit.
func TestNoteHitReadsPendingDeltaBeforeAdd(t *testing.T) {
	env := sim.NewEnv(1)
	opts := DefaultOptions(1000, 1000*320)
	opts.FCThreshold = 1000 // keep every delta buffered during the test
	cl := NewCluster(env, opts)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		k := key(1)
		c.Set(k, value(1)) // slot freq initialized to 1
		const hits = 10
		for i := 0; i < hits; i++ {
			if _, ok := c.Get(k); !ok {
				t.Fatal("unexpected miss")
			}
		}
		s := findSlot(t, c, k)
		if s.Freq != 1 {
			t.Fatalf("remote freq flushed prematurely: %d", s.Freq)
		}
		if d := c.fc.PendingDelta(s.Addr); d != hits {
			t.Fatalf("pending delta = %d, want %d", d, hits)
		}
		// The (hits+1)-th access: logical frequency must be
		// snapshot(1) + buffered(hits) + this access(1).
		if got, want := c.noteHit(s, len(k)), uint64(1+hits+1); got != want {
			t.Errorf("noteHit = %d, want %d (double-counted buffered hit?)", got, want)
		}
		if d := c.fc.PendingDelta(s.Addr); d != hits+1 {
			t.Errorf("pending delta after noteHit = %d, want %d", d, hits+1)
		}
		// Flushing reconciles the remote counter with every access seen.
		c.fc.FlushAll()
		s = findSlot(t, c, k)
		if want := uint64(1 + hits + 1); s.Freq != want {
			t.Errorf("flushed remote freq = %d, want %d", s.Freq, want)
		}
	})
	env.Run()
}

// opLatencies collects c's OnOp latencies of one kind, in report order.
func opLatencies(c *Client, kind OpKind) *[]int64 {
	var lats []int64
	c.OnOp = func(op OpKind, lat int64, _ bool) {
		if op == kind {
			lats = append(lats, lat)
		}
	}
	return &lats
}

// TestDemotedKeyLatencyCountsTheBatch is the regression test for the
// latency clock of a key MGet/MSet demotes to the serial driver: the
// doorbell rounds it sat through before the demotion are part of what
// the caller waited for, so its reported latency runs from the BATCH's
// start and exceeds the clean keys' (which all complete with the batch).
// Restarting the clock at the fallback under-reported exactly the
// slowest keys of a batch.
func TestDemotedKeyLatencyCountsTheBatch(t *testing.T) {
	// A batch reports its clean keys first and a demoted key last.
	check := func(op string, lats []int64) {
		t.Helper()
		if len(lats) != 8 {
			t.Fatalf("%s reported %d ops, want 8", op, len(lats))
		}
		if clean, demoted := lats[0], lats[7]; demoted <= clean {
			t.Errorf("%s: demoted key reported %d ns, clean keys %d ns: the fallback restarted the clock",
				op, demoted, clean)
		}
	}

	t.Run("MGet stale hint", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newSpecCluster(env, 1000, 256)
		env.Go("c", func(p *sim.Proc) {
			c, other := cl.NewClient(p), cl.NewClient(p)
			keys := make([][]byte, 8)
			for i := range keys {
				keys[i] = key(i)
				// c's own Sets leave it hints; other's leave it none, so the
				// batch walks those keys: two doorbell rounds.
				if i < 4 {
					c.Set(keys[i], value(i))
				} else {
					other.Set(keys[i], value(i))
				}
			}
			other.Set(keys[3], value(30)) // moves the block: c's hint is stale
			lats := opLatencies(c, OpGet)
			if _, oks := c.MGet(keys); !oks[3] {
				t.Fatal("stale-hint key missed")
			}
			if c.Stats.SpecGetFallbacks != 1 {
				t.Fatalf("fallbacks = %d, want 1", c.Stats.SpecGetFallbacks)
			}
			check("MGet", *lats)
		})
		env.Run()
	})

	t.Run("MSet lost CAS", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newTestCluster(env, 1000)
		env.Go("load", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for i := 0; i < 16; i++ {
				c.Set(key(i), value(i))
			}
		})
		env.Run()
		// Two clients update key 3 inside same-shaped batches started at
		// the same instant: their rounds stay in lock step, both publish
		// CASes expect the same old pointer, the second one loses.
		var clients [2]*Client
		var lats [2]*[]int64
		for w := range clients {
			w := w
			env.Go("w", func(p *sim.Proc) {
				c := cl.NewClient(p)
				clients[w], lats[w] = c, opLatencies(c, OpSet)
				pairs := make([]KV, 8)
				for i := range pairs {
					pairs[i] = KV{Key: key(8*w + i), Value: value(100 + i)}
				}
				pairs[3].Key = key(3)
				c.MSet(pairs)
			})
		}
		env.Run()
		if r := clients[0].Stats.SetRetries + clients[1].Stats.SetRetries; r != 1 {
			t.Fatalf("set retries = %d, want exactly the one lost CAS", r)
		}
		for w, c := range clients {
			if c.Stats.SetRetries == 1 {
				check("MSet", *lats[w])
			}
		}
	})
}
