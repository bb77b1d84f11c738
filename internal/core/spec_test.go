package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/sim"
)

// newSpecCluster is newTestCluster with the location cache enabled, so
// Gets of hinted keys take the one-RTT speculative path.
func newSpecCluster(env *sim.Env, objects, slots int) *Cluster {
	opts := DefaultOptions(objects, objects*320)
	opts.LocCacheSlots = slots
	return NewCluster(env, opts)
}

// TestSpecGetVerbBudget pins the tentpole claim: a hinted Get is exactly
// ONE synchronous READ — no bucket READ, no CAS, no RPC — with metadata
// riding on the usual single async WRITE. The writer's own Set records
// the hint (noteSetLocation), so the very first Get after a Set already
// runs speculatively.
func TestSpecGetVerbBudget(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("k"), []byte("v"))
		for i := 0; i < 2; i++ {
			s0 := cl.MN.Node.Stats
			v, ok := c.Get([]byte("k"))
			d := cl.MN.Node.Stats
			if !ok || !bytes.Equal(v, []byte("v")) {
				t.Fatalf("get %d: ok=%v v=%q", i, ok, v)
			}
			if reads := d.Reads - s0.Reads; reads != 1 {
				t.Errorf("get %d used %d READs, want 1 (speculative)", i, reads)
			}
			if cas := d.CASes - s0.CASes; cas != 0 {
				t.Errorf("get %d used %d CASes, want 0", i, cas)
			}
			if rpcs := d.RPCs - s0.RPCs; rpcs != 0 {
				t.Errorf("get %d used %d RPCs, want 0", i, rpcs)
			}
			if w := d.Writes - s0.Writes; w != 1 {
				t.Errorf("get %d used %d WRITEs, want 1 (async last_ts)", i, w)
			}
		}
		if c.Stats.SpecGetHits != 2 || c.Stats.SpecGetFallbacks != 0 {
			t.Errorf("spec stats = %d hits / %d fallbacks, want 2/0",
				c.Stats.SpecGetHits, c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestSpecGetFallbackOnConcurrentUpdate pins the read-validate ladder: a
// concurrent out-of-place update moves the key to a new block, so the
// reader's stale hint fails validation (the old block's stamp was
// cleared on free), the Get silently falls back and returns the NEW
// value, and the refreshed hint speculates successfully again.
func TestSpecGetFallbackOnConcurrentUpdate(t *testing.T) {
	env := sim.NewEnv(2)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		reader := cl.NewClient(p)
		writer := cl.NewClient(p)
		reader.Set([]byte("k"), []byte("v1"))
		if _, ok := reader.Get([]byte("k")); !ok {
			t.Fatal("warm get missed")
		}
		writer.Set([]byte("k"), []byte("v2"))
		v, ok := reader.Get([]byte("k"))
		if !ok || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("after update: ok=%v v=%q, want v2", ok, v)
		}
		if reader.Stats.SpecGetFallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", reader.Stats.SpecGetFallbacks)
		}
		s0 := cl.MN.Node.Stats
		if v, _ = reader.Get([]byte("k")); !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("refreshed hint returned %q", v)
		}
		if reads := cl.MN.Node.Stats.Reads - s0.Reads; reads != 1 {
			t.Errorf("refreshed hint used %d READs, want 1", reads)
		}
	})
	env.Run()
}

// TestSpecGetNoResurrectionAfterDelete pins the soundness property the
// free-stamp exists for: after ANOTHER client deletes the key, the stale
// hint must not resurrect the old image from freed memory — the
// speculative read fails validation and the Get misses.
func TestSpecGetNoResurrectionAfterDelete(t *testing.T) {
	env := sim.NewEnv(3)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		reader := cl.NewClient(p)
		deleter := cl.NewClient(p)
		reader.Set([]byte("k"), []byte("v"))
		if _, ok := reader.Get([]byte("k")); !ok {
			t.Fatal("warm get missed")
		}
		if !deleter.Delete([]byte("k")) {
			t.Fatal("delete reported key absent")
		}
		if v, ok := reader.Get([]byte("k")); ok {
			t.Fatalf("deleted key resurrected: %q", v)
		}
		if reader.Stats.SpecGetFallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", reader.Stats.SpecGetFallbacks)
		}
		if reader.Stats.Misses != 1 {
			t.Errorf("misses = %d, want 1", reader.Stats.Misses)
		}
		// The walk found no copy to re-record, so the rejected hint is
		// gone: the next Get goes straight to the walk.
		if _, ok := reader.Get([]byte("k")); ok || reader.Stats.SpecGetFallbacks != 1 {
			t.Errorf("second get: ok=%v, fallbacks = %d, want a plain miss", ok, reader.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestSpecGetLeaseExpiryFallsBack pins tenantMode composition: a hinted
// key whose lease lapses must NOT be served speculatively — the
// validation rejects the expired image and the full plan applies the
// exact lease-as-miss semantics.
func TestSpecGetLeaseExpiryFallsBack(t *testing.T) {
	env := sim.NewEnv(4)
	cl := newSpecCluster(env, 1000, 256)
	cl.SetTenantQuota(1, 1<<40) // enables tenantMode
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.BindTenant(1)
		const ttl = 10 * sim.Millisecond
		c.SetTTL([]byte("k"), []byte("v"), ttl)
		if _, ok := c.Get([]byte("k")); !ok {
			t.Fatal("live lease missed")
		}
		if c.Stats.SpecGetHits != 1 {
			t.Errorf("live-lease spec hits = %d, want 1", c.Stats.SpecGetHits)
		}
		p.Sleep(ttl + sim.Millisecond)
		if _, ok := c.Get([]byte("k")); ok {
			t.Fatal("lapsed lease served")
		}
		if c.Stats.SpecGetFallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestMGetSpecDoorbellStaging pins the batched staging the tentpole
// requires: hinted keys' speculative READs and unhinted keys' bucket
// READs share the SAME first doorbell. An all-hinted all-valid batch is
// ONE doorbell of n READs; a mixed batch is two (the unhinted keys'
// object READs form the second), not three.
func TestMGetSpecDoorbellStaging(t *testing.T) {
	env := sim.NewEnv(5)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		other := cl.NewClient(p) // its Sets leave c without hints
		hinted := make([][]byte, 16)
		unhinted := make([][]byte, 16)
		for i := range hinted {
			hinted[i] = key(i)
			c.Set(hinted[i], value(i))
		}
		for i := range unhinted {
			unhinted[i] = key(100 + i)
			other.Set(unhinted[i], value(100+i))
		}

		before := cl.MN.Node.Stats
		vals, oks := c.MGet(hinted)
		after := cl.MN.Node.Stats
		for i := range hinted {
			if !oks[i] || !bytes.Equal(vals[i], value(i)) {
				t.Fatalf("hinted key %d: ok=%v", i, oks[i])
			}
		}
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 1 {
			t.Errorf("all-hinted MGet used %d doorbells, want 1", d)
		}
		if reads := after.Reads - before.Reads; reads != int64(len(hinted)) {
			t.Errorf("all-hinted MGet used %d READs, want %d", reads, len(hinted))
		}
		if c.Stats.SpecGetHits != int64(len(hinted)) {
			t.Errorf("spec hits = %d, want %d", c.Stats.SpecGetHits, len(hinted))
		}

		mixed := append(append([][]byte{}, hinted...), unhinted...)
		before = cl.MN.Node.Stats
		vals, oks = c.MGet(mixed)
		after = cl.MN.Node.Stats
		for i := range mixed {
			if !oks[i] {
				t.Fatalf("mixed key %d missed", i)
			}
		}
		_ = vals
		if d := after.DoorbellBatches - before.DoorbellBatches; d != 2 {
			t.Errorf("mixed MGet used %d doorbells, want 2 (spec READs share the first)", d)
		}
		if c.Stats.SpecGetFallbacks != 0 {
			t.Errorf("fallbacks = %d, want 0", c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestSpecGetOverflowBucketHint is the regression test for the
// overflow-path fix: a key living in its BACKUP bucket (main bucket
// full) must still get a hint recorded on the full-walk hit, so its
// repeat reads reach one RTT like any other key's.
func TestSpecGetOverflowBucketHint(t *testing.T) {
	env := sim.NewEnv(6)
	cl := newSpecCluster(env, 1000, 256)
	env.Go("c", func(p *sim.Proc) {
		writer := cl.NewClient(p)
		reader := cl.NewClient(p)

		// Find SlotsPerBucket+1 keys sharing one main bucket: the last
		// insert overflows into its backup bucket.
		per := cl.Options().SlotsPerBucket
		byBucket := map[int][]int{}
		var colliding []int
		for i := 0; i < 100000 && colliding == nil; i++ {
			b := cl.Layout.MainBucket(hashtable.KeyHash(key(i)))
			byBucket[b] = append(byBucket[b], i)
			if len(byBucket[b]) == per+1 {
				colliding = byBucket[b]
			}
		}
		if colliding == nil {
			t.Fatal("no bucket collision found in 100000 keys")
		}
		for _, i := range colliding {
			writer.Set(key(i), value(i))
		}
		last := colliding[len(colliding)-1]
		kh := hashtable.KeyHash(key(last))
		if spillSlot(writer, kh, cl.Layout.MainBucket(kh)) {
			t.Skip("last insert did not overflow (history slot reclaimed)")
		}

		// First read: the full walk (reader has no hint) must record one.
		if v, ok := reader.Get(key(last)); !ok || !bytes.Equal(v, value(last)) {
			t.Fatalf("overflowed key unreadable: ok=%v", ok)
		}
		s0 := cl.MN.Node.Stats
		if _, ok := reader.Get(key(last)); !ok {
			t.Fatal("repeat read missed")
		}
		if reads := cl.MN.Node.Stats.Reads - s0.Reads; reads != 1 {
			t.Errorf("repeat read of overflowed key used %d READs, want 1", reads)
		}
		if reader.Stats.SpecGetHits != 1 {
			t.Errorf("spec hits = %d, want 1", reader.Stats.SpecGetHits)
		}
	})
	env.Run()
}

// spillSlot reports whether key hash kh still resolves to a live slot in
// bucket b (i.e. it did NOT overflow to its backup bucket).
func spillSlot(c *Client, kh uint64, b int) bool {
	fp := hashtable.Fingerprint(kh)
	for _, s := range c.ht.ReadBucket(b) {
		if !s.Atomic.IsEmpty() && !s.Atomic.IsHistory() && s.Atomic.FP() == fp {
			return true
		}
	}
	return false
}

// runSpecOrSeed drives one client through a deterministic mixed
// workload and returns every observation plus the run's virtual end
// time. slots=0 is the seed configuration (no location cache).
func runSpecOrSeed(t *testing.T, slots int, batched bool) ([]string, int64) {
	env := sim.NewEnv(9)
	opts := DefaultOptions(4000, 4000*320) // oversized: no evictions
	opts.LocCacheSlots = slots
	cl := NewCluster(env, opts)
	var out []string
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 40; round++ {
			pairs := make([]KV, 8)
			for j := range pairs {
				k := rng.Intn(200)
				pairs[j] = KV{Key: key(k), Value: value(k + round)}
			}
			gets := make([][]byte, 16)
			for j := range gets {
				gets[j] = key(rng.Intn(300)) // beyond 200: guaranteed misses
			}
			dels := make([][]byte, 4)
			for j := range dels {
				dels[j] = key(rng.Intn(250))
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
		if slots > 0 && c.Stats.SpecGetHits == 0 {
			t.Error("workload never took the speculative path")
		}
	})
	env.Run()
	return out, env.Now()
}

// TestSpecGetObservablyEquivalent pins the correctness half of the perf
// claim: with the location cache on, serial and batched drivers return
// exactly what the cache-off (seed-shaped) run returns on the same
// deterministic workload — speculation changes latencies, never values.
// It also pins the perf direction itself: the read-heavy cache-on runs
// finish in strictly less virtual time than their cache-off twins.
func TestSpecGetObservablyEquivalent(t *testing.T) {
	seedSerial, tSeedSerial := runSpecOrSeed(t, 0, false)
	seedBatch, tSeedBatch := runSpecOrSeed(t, 0, true)
	specSerial, tSpecSerial := runSpecOrSeed(t, 256, false)
	specBatch, tSpecBatch := runSpecOrSeed(t, 256, true)

	for name, got := range map[string][]string{
		"seed-batched": seedBatch, "spec-serial": specSerial, "spec-batched": specBatch,
	} {
		if len(got) != len(seedSerial) {
			t.Fatalf("%s: op count %d, want %d", name, len(got), len(seedSerial))
		}
		for i := range got {
			if got[i] != seedSerial[i] {
				t.Fatalf("%s: op %d = %q, seed-serial = %q", name, i, got[i], seedSerial[i])
			}
		}
	}
	if tSpecSerial >= tSeedSerial {
		t.Errorf("serial: cache-on took %d ns >= cache-off %d ns", tSpecSerial, tSeedSerial)
	}
	if tSpecBatch >= tSeedBatch {
		t.Errorf("batched: cache-on took %d ns >= cache-off %d ns", tSpecBatch, tSeedBatch)
	}
}
