package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/rdma"
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

	// Under a concurrent writer the two runs no longer line up op for op,
	// but every batched read must still return what a sequence of Sets in
	// pair order would have left — the LAST pair of the key in the
	// client's latest batch holding it — or something the rival wrote:
	// never an earlier pair that a retry pass let overtake a later one.
	t.Run("under a concurrent writer", func(t *testing.T) {
		const keySpace, rounds = 12, 60
		env := sim.NewEnv(7)
		cl := newTestCluster(env, 4000)
		rival := bytes.Repeat([]byte{0xEE}, 64)
		var retries int64
		env.Go("rival", func(p *sim.Proc) {
			c := cl.NewClient(p)
			rng := rand.New(rand.NewSource(5))
			for round := 0; round < rounds; round++ {
				pairs := make([]KV, 8)
				for j := range pairs {
					pairs[j] = KV{Key: key(rng.Intn(keySpace)), Value: rival}
				}
				c.MSet(pairs)
			}
			retries += c.Stats.SetRetries
		})
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			rng := rand.New(rand.NewSource(99))
			model := map[string][]byte{}
			for round := 0; round < rounds; round++ {
				pairs := make([]KV, 8)
				for j := range pairs {
					k := rng.Intn(keySpace)
					pairs[j] = KV{Key: key(k), Value: value(round*8 + j)}
				}
				c.MSet(pairs)
				for _, kv := range pairs {
					model[string(kv.Key)] = kv.Value
				}
				gets := make([][]byte, keySpace)
				for j := range gets {
					gets[j] = key(j)
				}
				vs, oks := c.MGet(gets)
				for j, g := range gets {
					want, written := model[string(g)]
					switch {
					case oks[j] && bytes.Equal(vs[j], rival):
					case !written && !oks[j]:
					case written && oks[j] && bytes.Equal(vs[j], want):
					default:
						t.Fatalf("round %d key %d: ok=%v value %d.., want the last pair's %v (or the rival's)",
							round, j, oks[j], vs[j][:1], want[:1])
					}
				}
			}
			retries += c.Stats.SetRetries
		})
		env.Run()
		if retries == 0 {
			t.Error("the writers never contended: the variant tested nothing")
		}
	})
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
	// One writer, nobody to contend with: the key is stored ONCE, with its
	// last pair — one WRITE, one publishing CAS, no retry (the pairs of one
	// pass used to race each other for the slot and chase) — while every
	// pair still counts as a Set and reports the batch's latency.
	env := sim.NewEnv(2)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		lats := opLatencies(c, OpSet)
		s0 := cl.MN.Node.Stats
		c.MSet([]KV{
			{Key: key(1), Value: value(10)},
			{Key: key(1), Value: value(20)},
			{Key: key(1), Value: value(30)},
		})
		s1 := cl.MN.Node.Stats
		// Asynchronous verbs are metadata maintenance; no FAA is due yet,
		// so every one of them is a WRITE.
		if s1.FAAs != s0.FAAs {
			t.Fatalf("%d FAAs: the WRITE count below cannot tell the object WRITE apart", s1.FAAs-s0.FAAs)
		}
		writes := (s1.Writes - s0.Writes) - (s1.AsyncOps - s0.AsyncOps)
		if cas := s1.CASes - s0.CASes; writes != 1 || cas != 1 {
			t.Errorf("MSet of one key three times issued %d object WRITEs and %d CASes, want 1 and 1", writes, cas)
		}
		if c.Stats.SetRetries != 0 || c.Stats.Sets != 3 || len(*lats) != 3 {
			t.Errorf("retries=%d sets=%d reported=%d, want 0, 3 and 3", c.Stats.SetRetries, c.Stats.Sets, len(*lats))
		}
		v, ok := c.Get(key(1))
		if !ok || !bytes.Equal(v, value(30)) {
			t.Fatalf("duplicate-key MSet: ok=%v", ok)
		}
	})
	env.Run()

	// The same through MultiClient with hot-key replication on. A replicated
	// key's pairs are each written through, in pair order (superseded pairs
	// are dropped by the batched driver, BEHIND the write-through bracket —
	// replica.go), so every copy ends on the last pair; an unreplicated
	// key's pairs all register with the bracket but only the last stores.
	t.Run("routed, with replication", func(t *testing.T) {
		env := sim.NewEnv(2)
		mc := NewMultiCluster(env, 4, hotOptions(4000))
		const threshold = 4
		mc.EnableHotKeyReplication(1, threshold, 0)
		env.Go("c", func(p *sim.Proc) {
			m := mc.NewClient(p)
			hot := key(1)
			m.Set(hot, value(1))
			for i := 0; i < 2*threshold; i++ {
				m.Get(hot)
			}
			e := mc.hot.Lookup(hot)
			if e == nil {
				t.Fatalf("%q was not promoted", hot)
			}
			// An unreplicated key on a node that holds no copy of the hot
			// one, so that node's CASes are this key's alone.
			var cold []byte
			for i := 2; cold == nil; i++ {
				if o := mc.OwnerOf(key(i)); o != e.Primary && o != e.Replicas[0] {
					cold = key(i)
				}
			}
			m.Set(cold, value(2))
			before := m.Stats()
			owner := mc.nodes[mc.OwnerOf(cold)].MN.Node
			cas0 := owner.Stats.CASes
			m.MSet([]KV{
				{Key: hot, Value: value(10)}, {Key: cold, Value: value(11)},
				{Key: hot, Value: value(20)}, {Key: cold, Value: value(21)},
				{Key: hot, Value: value(30)}, {Key: cold, Value: value(31)},
			})
			after := m.Stats()
			if after.Sets-before.Sets != 6 || after.SetRetries != before.SetRetries {
				t.Errorf("sets=%d retries=%d, want 6 and 0", after.Sets-before.Sets, after.SetRetries-before.SetRetries)
			}
			if d := owner.Stats.CASes - cas0; d != 1 {
				t.Errorf("the unreplicated key's owner saw %d CASes, want 1", d)
			}
			if e = mc.hot.Lookup(hot); e == nil {
				t.Fatal("entry dissolved by three write-throughs")
			}
			for _, id := range append([]int{e.Primary}, e.Replicas...) {
				if v, ok := m.readQuiet(id, hot); !ok || !bytes.Equal(v, value(30)) {
					t.Errorf("node %d holds ok=%v %v.., want the last pair on every copy", id, ok, v[:1])
				}
			}
			if v, ok := m.Get(cold); !ok || !bytes.Equal(v, value(31)) {
				t.Errorf("unreplicated key reads ok=%v, want its last pair", ok)
			}
			if n := mc.hot.InflightWrites(cold); n != 0 {
				t.Errorf("%d write registration(s) left on the unreplicated key", n)
			}
		})
		env.Run()
	})

	// Two writers in lock step, each batch holding the same key three
	// times: lost CASes are chased and given-up pairs re-run, and through
	// all of it a writer's pairs keep their order — after its MSet returns
	// the key holds that batch's LAST pair or something of the rival's,
	// and when both are done it holds one of the two final last pairs.
	t.Run("concurrent writers", func(t *testing.T) {
		const rounds = 25
		env := sim.NewEnv(2)
		cl := newTestCluster(env, 1000)
		val := func(w, round, pair int) []byte {
			v := value(0)
			v[0], v[1], v[2] = byte(w), byte(round), byte(pair)
			return v
		}
		var retries int64
		for w := 0; w < 2; w++ {
			w := w
			env.Go("w", func(p *sim.Proc) {
				c := cl.NewClient(p)
				for round := 0; round < rounds; round++ {
					c.MSet([]KV{
						{Key: key(1), Value: val(w, round, 0)},
						{Key: key(2), Value: val(w, round, 0)},
						{Key: key(1), Value: val(w, round, 1)},
						{Key: key(1), Value: val(w, round, 2)},
					})
					v, ok := c.Get(key(1))
					if !ok || (int(v[0]) == w && (int(v[1]) != round || v[2] != 2)) {
						t.Fatalf("writer %d round %d: key holds its own pair (round %d, pair %d), want its last",
							w, round, v[1], v[2])
					}
				}
				retries += c.Stats.SetRetries
			})
		}
		env.Run()
		env.Go("check", func(p *sim.Proc) {
			v, ok := cl.NewClient(p).Get(key(1))
			if !ok || int(v[1]) != rounds-1 || v[2] != 2 {
				t.Fatalf("final value: ok=%v round %d pair %d, want a writer's final last pair", ok, v[1], v[2])
			}
		})
		env.Run()
		if retries == 0 {
			t.Error("the writers never contended: the variant tested nothing")
		}
	})
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

// syncVerbs counts the one-sided verbs between two node-stats snapshots
// that were neither posted in a doorbell batch nor asynchronous: the
// round trips an operation paid one at a time.
func syncVerbs(s0, s1 rdma.Stats) int64 {
	verbs := (s1.Reads - s0.Reads) + (s1.Writes - s0.Writes) + (s1.CASes - s0.CASes) + (s1.FAAs - s0.FAAs)
	return verbs - (s1.BatchedVerbs - s0.BatchedVerbs) - (s1.AsyncOps - s0.AsyncOps)
}

// staleHintBatch leaves client c with a hint for each of keys 0..7, the
// first four of them stale (another client has since moved the blocks).
func staleHintBatch(c, other *Client) [][]byte {
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = key(i)
		c.Set(keys[i], value(i))
	}
	for i := 0; i < 4; i++ {
		other.Set(keys[i], value(30+i))
	}
	return keys
}

// lockStep is what two lock-stepped MSet(8) batches sharing one key did.
type lockStep struct {
	clients [2]*Client
	lats    [2]*[]int64 // OnOp Set latencies, in report order
	elapsed [2]int64    // virtual time each MSet call took
	s0, s1  rdma.Stats  // node stats around the two batches
	loaded  int         // heap bytes in use before them
}

// runLockStep loads keys 0..15, then runs two clients whose MSet(8)
// batches start at the same instant, each over its own keys except that
// both update key 3: their rounds stay in lock step, both publishing
// CASes expect the same old pointer, and the one posted second loses —
// and chases the winner's image inside its own batch.
func runLockStep(env *sim.Env, cl *Cluster) *lockStep {
	ls := &lockStep{}
	env.Go("load", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 16; i++ {
			c.Set(key(i), value(i))
		}
	})
	env.Run()
	ls.s0, ls.loaded = cl.MN.Node.Stats, cl.MN.UsedBytes
	for w := range ls.clients {
		w := w
		env.Go("w", func(p *sim.Proc) {
			c := cl.NewClient(p)
			ls.clients[w], ls.lats[w] = c, opLatencies(c, OpSet)
			pairs := make([]KV, 8)
			for i := range pairs {
				pairs[i] = KV{Key: key(8*w + i), Value: value(100 + i)}
			}
			pairs[3].Key = key(3)
			start := p.Now()
			c.MSet(pairs)
			ls.elapsed[w] = p.Now() - start
		})
	}
	env.Run()
	ls.s1 = cl.MN.Node.Stats
	return ls
}

// TestMSetDoorbellBudget pins the batched store pipeline's shape off the
// memory node's stats: an all-update batch is three doorbell batches —
// bucket READs, object READs, WRITE+CAS as one group — and no
// synchronous verb; a publish CAS lost inside the batch is chased in two
// more doorbell batches (READ the winner's image, CAS again), still
// without a synchronous verb, counts one SetRetries and leaks no block.
func TestMSetDoorbellBudget(t *testing.T) {
	t.Run("all updates", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newTestCluster(env, 1000)
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			pairs := make([]KV, 8)
			for i := range pairs {
				pairs[i] = KV{Key: key(i), Value: value(i)}
				c.Set(pairs[i].Key, pairs[i].Value)
			}
			s0 := cl.MN.Node.Stats
			c.MSet(pairs)
			s1 := cl.MN.Node.Stats
			if n := s1.DoorbellBatches - s0.DoorbellBatches; n != 3 {
				t.Errorf("all-update MSet(8) used %d doorbell batches, want 3", n)
			}
			if n := syncVerbs(s0, s1); n != 0 {
				t.Errorf("all-update MSet(8) issued %d synchronous verbs, want 0", n)
			}
			if c.Stats.SetRetries != 0 {
				t.Errorf("set retries = %d, want 0", c.Stats.SetRetries)
			}
		})
		env.Run()
	})

	t.Run("one lost CAS", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newTestCluster(env, 1000)
		ls := runLockStep(env, cl)
		if n := ls.s1.DoorbellBatches - ls.s0.DoorbellBatches; n != 2*3+2 {
			t.Errorf("two MSet(8) with one lost CAS used %d doorbell batches, want 3 each + 2 for the chase", n)
		}
		if n := syncVerbs(ls.s0, ls.s1); n != 0 {
			t.Errorf("%d synchronous verbs, want 0: the lost CAS left the doorbell pipeline", n)
		}
		if r := ls.clients[0].Stats.SetRetries + ls.clients[1].Stats.SetRetries; r != 1 {
			t.Errorf("set retries = %d, want exactly the one chased CAS", r)
		}
		// Every pair was an update of a loaded key by a same-sized value:
		// the published objects fill exactly what the load did, so any
		// difference is a leaked (or doubly freed) staged block.
		if cl.MN.UsedBytes != ls.loaded {
			t.Errorf("heap holds %d bytes, the 16 published objects %d", cl.MN.UsedBytes, ls.loaded)
		}
	})
}

// TestMSetIntoFullBucketsStaysInTheDoorbell: a batch whose every pair
// finds both of its buckets full displaces inside its plans — the pass
// issues no synchronous verb (the driver-level bucket eviction it replaces
// ran a CAS, and per-candidate READs, one round trip at a time), the pairs
// that picked the same occupant settle in later passes, and the heap
// stays exact. Tenant mode adds the candidates' header
// READs, as one more doorbell.
func TestMSetIntoFullBucketsStaysInTheDoorbell(t *testing.T) {
	for _, tenants := range []bool{false, true} {
		env := sim.NewEnv(21)
		cl := NewCluster(env, DefaultOptions(8, 1<<20)) // 4 buckets, a roomy heap
		cl.MN.EnableFreeTracking()
		if tenants {
			cl.SetTenantQuota(1, 1<<40)
		}
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			c.BindTenant(1)
			for i := 0; c.Stats.BucketEvictions == 0; i++ { // until the table is full
				c.Set(key(i), value(i))
			}
			pairs := make([]KV, 16)
			for i := range pairs {
				pairs[i] = KV{Key: key(1000 + i), Value: value(i)}
			}
			st, s0 := c.Stats, cl.MN.Node.Stats
			c.MSet(pairs)
			s1 := cl.MN.Node.Stats
			if d := c.Stats.BucketEvictions - st.BucketEvictions; d < 8 {
				t.Fatalf("tenants=%v: only %d of 16 pairs displaced an occupant", tenants, d)
			}
			if n := syncVerbs(s0, s1); n != 0 {
				t.Errorf("tenants=%v: MSet into full buckets issued %d synchronous verbs, want 0", tenants, n)
			}
			// A pair a later one displaced is gone; one that is there holds
			// its value.
			for i, kv := range pairs {
				if v, ok := c.Get(kv.Key); ok && !bytes.Equal(v, kv.Value) {
					t.Errorf("tenants=%v: pair %d reads back another value", tenants, i)
				}
			}
			if pub := publishedBytes(c); pub != cl.MN.UsedBytes {
				t.Errorf("tenants=%v: heap holds %d live bytes, the table publishes %d", tenants, cl.MN.UsedBytes, pub)
			}
		})
		env.Run()
	}
}

// TestMGetStaleHintDoorbellBudget pins what a rejected hint costs a
// batch: ONE shared round. Eight hinted keys, four of the hints stale:
// the hinted READs are the first doorbell, the rejected keys' bucket
// READs the second, their object READs the third — and no key leaves the
// pipeline for a synchronous READ.
func TestMGetStaleHintDoorbellBudget(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		c, other := cl.NewClient(p), cl.NewClient(p)
		keys := staleHintBatch(c, other)
		s0 := cl.MN.Node.Stats
		vals, oks := c.MGet(keys)
		s1 := cl.MN.Node.Stats
		for i := range keys {
			want := value(i)
			if i < 4 {
				want = value(30 + i)
			}
			if !oks[i] || !bytes.Equal(vals[i], want) {
				t.Fatalf("key %d: ok=%v, or the wrong value", i, oks[i])
			}
		}
		if n := s1.DoorbellBatches - s0.DoorbellBatches; n > 3 {
			t.Errorf("MGet(8) with 4 stale hints used %d doorbell batches, want at most 3", n)
		}
		if n := syncVerbs(s0, s1); n != 0 {
			t.Errorf("%d synchronous verbs, want 0: a rejected hint left the doorbell pipeline", n)
		}
		if c.Stats.SpecGetHits != 4 || c.Stats.SpecGetFallbacks != 4 {
			t.Errorf("spec stats = %d hits / %d fallbacks, want 4/4", c.Stats.SpecGetHits, c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestDemotedKeyLatencyCountsTheBatch pins the latency clock of a key
// whose batch attempt hit a complication. The key stays in the batch's
// doorbell rounds, so what the caller waited for it — and for every other
// key, the call returns them together — is the batch: the clock starts
// at the batch's start and no key reports less than the batch took.
// (Restarting the clock where the complication was handled under-reported
// exactly the slowest keys.) And a lost publish CAS lengthens its batch
// by the two rounds of the chase, not by a back-off and a fresh walk.
func TestDemotedKeyLatencyCountsTheBatch(t *testing.T) {
	check := func(op string, lats []int64, elapsed int64) {
		t.Helper()
		if len(lats) != 8 {
			t.Fatalf("%s reported %d ops, want 8", op, len(lats))
		}
		for i, l := range lats {
			if l != elapsed {
				t.Errorf("%s: op %d reported %d ns, the batch took %d ns", op, i, l, elapsed)
			}
		}
	}

	t.Run("MGet stale hint", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newSpecCluster(env, 1000, 256)
		env.Go("c", func(p *sim.Proc) {
			c, other := cl.NewClient(p), cl.NewClient(p)
			keys := staleHintBatch(c, other)
			lats := opLatencies(c, OpGet)
			start := p.Now()
			if _, oks := c.MGet(keys); !oks[3] {
				t.Fatal("stale-hint key missed")
			}
			elapsed := p.Now() - start
			if c.Stats.SpecGetFallbacks != 4 {
				t.Fatalf("fallbacks = %d, want 4", c.Stats.SpecGetFallbacks)
			}
			check("MGet", *lats, elapsed)
		})
		env.Run()
	})

	t.Run("MSet lost CAS", func(t *testing.T) {
		env := sim.NewEnv(1)
		cl := newTestCluster(env, 1000)
		ls := runLockStep(env, cl)
		loser := 0
		if ls.clients[1].Stats.SetRetries == 1 {
			loser = 1
		}
		if ls.clients[loser].Stats.SetRetries != 1 || ls.clients[1-loser].Stats.SetRetries != 0 {
			t.Fatalf("set retries = %d and %d, want exactly the one lost CAS",
				ls.clients[0].Stats.SetRetries, ls.clients[1].Stats.SetRetries)
		}
		for w := range ls.clients {
			check("MSet", *ls.lats[w], ls.elapsed[w])
		}
		// The chase: one object READ, one CAS, a round trip each.
		rtt := cl.MN.Node.Config().RTT
		if extra := ls.elapsed[loser] - ls.elapsed[1-loser]; extra < 2*rtt || extra >= 3*rtt {
			t.Errorf("the lost CAS cost its batch %d ns, want two rounds (RTT %d ns)", extra, rtt)
		}
	})
}

// TestRoutedBatchRoundBudget pins what a batch over several owners costs:
// the SLOWEST owner's rounds, not the sum of the owners' pipelines. On a
// 4-MN pool an all-hit MGet of 64 keys spread over every owner takes the
// virtual time of two doorbell rounds, an all-update MSet three, an
// all-present MDelete three — each within the RNIC service time of what the
// largest owner's group costs run alone — and every memory node still sees
// exactly one doorbell per round.
func TestRoutedBatchRoundBudget(t *testing.T) {
	const n = 64
	env := sim.NewEnv(17)
	mc := NewMultiCluster(env, 4, DefaultOptions(4000, 4000*320))
	rtt := mc.Node(0).MN.Node.Config().RTT
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		keys, pairs := make([][]byte, n), make([]KV, n)
		share := map[int][]int{}
		for i := range keys {
			keys[i], pairs[i] = key(i), KV{Key: key(i), Value: value(i)}
			m.Set(keys[i], pairs[i].Value)
			share[mc.OwnerOf(keys[i])] = append(share[mc.OwnerOf(keys[i])], i)
		}
		largest := -1
		for i := 0; i < mc.NumNodes(); i++ {
			id := mc.NodeID(i)
			if len(share[id]) == 0 {
				t.Fatalf("node %d owns none of the %d keys", id, n)
			}
			if largest < 0 || len(share[id]) > len(share[largest]) {
				largest = id
			}
		}
		aloneKeys, alonePairs := make([][]byte, 0, n), make([]KV, 0, n)
		for _, i := range share[largest] {
			aloneKeys, alonePairs = append(aloneKeys, keys[i]), append(alonePairs, pairs[i])
		}
		// timed runs op once the fabric is quiet (the previous operation's
		// asynchronous metadata verbs have drained) and returns its virtual
		// time and every node's doorbell count.
		timed := func(op func()) (int64, []int64) {
			p.Sleep(10 * rtt)
			bells := make([]int64, mc.NumNodes())
			for i := range bells {
				bells[i] = -mc.Node(i).MN.Node.Stats.DoorbellBatches
			}
			start := p.Now()
			op()
			took := p.Now() - start
			for i := range bells {
				bells[i] += mc.Node(i).MN.Node.Stats.DoorbellBatches
			}
			return took, bells
		}
		check := func(name string, rounds int64, all, alone func()) {
			t.Helper()
			took, bells := timed(all)
			ref, _ := timed(alone)
			svc := ref - rounds*rtt // the largest group's RNIC service time
			if svc < 0 {
				t.Fatalf("%s: the largest group alone took %d ns, less than %d rounds of %d ns", name, ref, rounds, rtt)
			}
			if took < rounds*rtt || took > ref+svc {
				t.Errorf("%s over 4 owners took %d ns; its largest group alone takes %d ns (%d rounds + %d ns of RNIC service)",
					name, took, ref, rounds, svc)
			}
			for i, d := range bells {
				if d != rounds {
					t.Errorf("%s rang %d doorbells on node %d, want one per round (%d)", name, d, mc.NodeID(i), rounds)
				}
			}
		}
		check("MGet(64)", 2,
			func() {
				if _, oks := m.MGet(keys); !oks[0] || !oks[n-1] {
					t.Fatal("loaded key missed")
				}
			},
			func() { m.MGet(aloneKeys) })
		m.MSet(pairs) // the updates below reuse the blocks this one frees: no allocator RPC in the timed rounds
		check("MSet(64)", 3, func() { m.MSet(pairs) }, func() { m.MSet(alonePairs) })
		// Delete the largest group alone first (it is re-stored before the
		// whole batch is deleted), so both deletes find every key present.
		refDel, _ := timed(func() { m.MDelete(aloneKeys) })
		m.MSet(alonePairs)
		took, bells := timed(func() {
			for i, ok := range m.MDelete(keys) {
				if !ok {
					t.Fatalf("key %d not reported deleted", i)
				}
			}
		})
		if svc := refDel - 3*rtt; took < 3*rtt || took > refDel+svc {
			t.Errorf("MDelete(64) over 4 owners took %d ns; its largest group alone takes %d ns", took, refDel)
		}
		for i, d := range bells {
			if d != 3 {
				t.Errorf("MDelete(64) rang %d doorbells on node %d, want 3", d, mc.NodeID(i))
			}
		}
	})
	env.Run()
}
