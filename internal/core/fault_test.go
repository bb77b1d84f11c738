package core

import (
	"bytes"
	"testing"

	"ditto/internal/hashtable"
	"ditto/internal/ring"
	"ditto/internal/sim"
)

// keyOwnedBy finds a key index routed to node id under mc's current ring.
func keyOwnedBy(t *testing.T, mc *MultiCluster, id int) int {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if mc.snap().hashRing.Owner(ring.Point(hashtable.KeyHash(key(i)))) == id {
			return i
		}
	}
	t.Fatal("no key routed to node")
	return -1
}

// TestTrySetUnavailableTyped: a Set whose owner fail-stops mid-verb must
// surface a typed unavailable error through TrySet (not a string panic),
// and the same key must store fine once the pool reconfigures. This is
// the regression test for the panic→typed-error conversion: reverting
// setDirect's NoOwnerError or the rdma unreachable catch turns the error
// below back into a test-killing panic.
func TestTrySetUnavailableTyped(t *testing.T) {
	env := sim.NewEnv(1)
	mc := NewMultiCluster(env, 2, DefaultOptions(1000, 1000*320))
	victim := mc.NodeID(0)
	ki := -1
	var gotErr error
	env.Go("writer", func(p *sim.Proc) {
		c := mc.NewClient(p)
		ki = keyOwnedBy(t, mc, victim)
		if err := c.TrySet(key(ki), value(ki)); err != nil {
			t.Fatalf("healthy TrySet errored: %v", err)
		}
		// Fail the node's fabric under the client without reconfiguring
		// the pool: the routing still targets the dead node, so the write
		// must fail typed, not wedge or panic.
		mc.nodes[victim].MN.Node.Fail()
		gotErr = c.TrySet(key(ki), value(ki))
		if gotErr == nil {
			t.Fatal("TrySet to a failed node returned nil")
		}
		if !IsUnavailable(gotErr) {
			t.Fatalf("TrySet error not IsUnavailable: %v", gotErr)
		}
		// Reconfigure (CrashNode re-routes the dead node's ranges) and
		// retry: the write must land on the survivor.
		mc.CrashNode(victim)
		if err := c.TrySet(key(ki), value(ki)); err != nil {
			t.Fatalf("TrySet after CrashNode errored: %v", err)
		}
		if v, ok := c.Get(key(ki)); !ok || !bytes.Equal(v, value(ki)) {
			t.Fatal("key not readable after reroute")
		}
	})
	env.Run()
	if gotErr == nil {
		t.Fatal("writer never observed the failure")
	}
}

// TestSetPanicsTypedAfterFail: the panicking Set keeps its fail-loud
// contract, but the panic value must now be a typed error a recovering
// caller can classify with IsUnavailable.
func TestSetPanicsTypedAfterFail(t *testing.T) {
	env := sim.NewEnv(2)
	mc := NewMultiCluster(env, 2, DefaultOptions(1000, 1000*320))
	victim := mc.NodeID(1)
	caught := false
	env.Go("writer", func(p *sim.Proc) {
		c := mc.NewClient(p)
		ki := keyOwnedBy(t, mc, victim)
		mc.nodes[victim].MN.Node.Fail()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Set to a failed node did not panic")
				}
				err, ok := r.(error)
				if !ok || !IsUnavailable(err) {
					t.Fatalf("Set panicked with untyped value: %v", r)
				}
				caught = true
			}()
			c.Set(key(ki), value(ki))
		}()
	})
	env.Run()
	if !caught {
		t.Fatal("typed panic never observed")
	}
}

// TestCrashNodeKeepsSurvivorKeys: crashing one node of four must lose
// ONLY keys the crashed node owned — every survivor-owned key stays
// readable with its exact value, because ring.Without reassigns only the
// crashed node's ranges. Reverting CrashNode's atomic ring+membership
// update (or ring.Without's stability property) breaks this.
func TestCrashNodeKeepsSurvivorKeys(t *testing.T) {
	env := sim.NewEnv(3)
	mc := NewMultiCluster(env, 4, DefaultOptions(4000, 4000*320))
	const n = 600
	victim := mc.NodeID(2)
	env.Go("c", func(p *sim.Proc) {
		c := mc.NewClient(p)
		owned := make([]bool, n)
		for i := 0; i < n; i++ {
			c.Set(key(i), value(i))
			owned[i] = mc.snap().hashRing.Owner(ring.Point(hashtable.KeyHash(key(i)))) == victim
		}
		mc.CrashNode(victim)
		lostOwned := 0
		for i := 0; i < n; i++ {
			v, ok := c.Get(key(i))
			if owned[i] {
				if ok {
					t.Fatalf("key %d survived its owner's crash", i)
				}
				lostOwned++
				continue
			}
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("survivor-owned key %d lost by a foreign crash", i)
			}
		}
		if lostOwned == 0 {
			t.Fatal("victim owned nothing; test proves nothing")
		}
	})
	env.Run()
	if mc.NodeCrashes != 1 || mc.NumNodes() != 3 {
		t.Fatalf("crashes=%d nodes=%d", mc.NodeCrashes, mc.NumNodes())
	}
}

// TestReclaimerRespawnsAfterKill: killing a node's background reclaimer
// mid-run must respawn it (OnCrash), and the respawned incarnation must
// keep reclaiming — UsedBytes returns below the high watermark under
// continued churn. Reverting the spawnReclaimer OnCrash hook leaves the
// pool with no reclaimer and this test's post-kill drain never happens.
func TestReclaimerRespawnsAfterKill(t *testing.T) {
	bigValue := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 240) }
	env := sim.NewEnv(4)
	cl := NewCluster(env, DefaultOptions(2000, 2000*320))
	cl.EnableBackgroundReclaim(0, 0)
	firstProc := cl.reclaimProc
	if firstProc == nil {
		t.Fatal("no reclaimer proc recorded")
	}
	env.Go("churn", func(p *sim.Proc) {
		c := cl.NewClient(p)
		// ~2.5x capacity: the same steady-state churn the reclaimer tests
		// use, so heap pressure persists well past the mid-churn kill.
		for i := 0; i < 5000; i++ {
			c.Set(key(i), bigValue(i))
		}
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(5_000_000) // mid-churn: the first incarnation is working
		env.Kill(cl.reclaimProc)
	})
	env.Run()
	if cl.ReclaimerRestarts() != 1 {
		t.Fatalf("reclaimer restarts = %d, want 1", cl.ReclaimerRestarts())
	}
	if cl.reclaimProc == firstProc || !cl.reclaimProc.Alive() {
		t.Fatal("reclaimer was not respawned alive")
	}
	// The respawned incarnation gets its own client (cl.reclaimer), so
	// its counters prove the REPLACEMENT worked: it woke under churn2's
	// pressure and actually evicted.
	post := cl.ReclaimerStats()
	if post.ReclaimerWakeups == 0 || post.Evictions == 0 {
		t.Fatalf("respawned reclaimer idle: wakeups=%d evictions=%d",
			post.ReclaimerWakeups, post.Evictions)
	}
}

// TestResharderRespawnsAfterKill: killing the resharder mid-migration
// must respawn an incarnation that finishes the membership change — the
// reshard completes and no key is lost. Reverting spawnResharder's
// OnCrash hook leaves oldRing non-nil forever and WaitReshard hangs
// (caught by the sim running out of events with the waiter parked).
func TestResharderRespawnsAfterKill(t *testing.T) {
	env := sim.NewEnv(5)
	mc := NewMultiCluster(env, 2, DefaultOptions(3000, 3000*320))
	const n = 500
	finished := false
	env.Go("driver", func(p *sim.Proc) {
		c := mc.NewClient(p)
		for i := 0; i < n; i++ {
			c.Set(key(i), value(i))
		}
		mc.AddNode()
		// Let the resharder get properly mid-flight before the kill.
		p.Sleep(200_000)
		rp := env.FindProc("resharder")
		if rp == nil {
			t.Fatal("no resharder running mid-reshard")
		}
		env.Kill(rp)
		mc.WaitReshard(p)
		if mc.ReshardRestarts != 1 {
			t.Fatalf("resharder restarts = %d, want 1", mc.ReshardRestarts)
		}
		for i := 0; i < n; i++ {
			v, ok := c.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d lost across the killed reshard", i)
			}
		}
		finished = true
	})
	env.Run()
	if !finished {
		t.Fatal("reshard never completed after the kill")
	}
}

// TestBatchWriteFailureReleasesRegistrations: a typed failure raised in
// the middle of a batched write must not leak the batch's hot-set write
// registrations (or entry locks). MSet used to re-type Set's
// BeginWrite…EndWrite bracket without the catch that closes it, so a
// fail-stopped owner left every pair registered forever — and a key whose
// registration never drains comes up Warming at its next promotion and
// stays there: its reads never spread again.
func TestBatchWriteFailureReleasesRegistrations(t *testing.T) {
	env := sim.NewEnv(4)
	mc := NewMultiCluster(env, 3, DefaultOptions(3000, 3000*320))
	const threshold = 4
	mc.EnableHotKeyReplication(1, threshold, 0)
	victim := mc.NodeID(0)
	recovered := false
	env.Go("writer", func(p *sim.Proc) {
		c := mc.NewClient(p)
		ki := keyOwnedBy(t, mc, victim)
		k := key(ki)
		pairs := []KV{{Key: k, Value: value(ki)}, {Key: key(ki + 1), Value: value(ki + 1)}}
		keys := [][]byte{pairs[0].Key, pairs[1].Key}
		c.MSet(pairs)

		// Fail the owner's fabric without reconfiguring the pool: the
		// routing still targets the dead node, so the batch fails typed.
		mc.nodes[victim].MN.Node.Fail()
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || !IsUnavailable(err) {
					t.Fatalf("MSet to a failed node: recovered %v, want a typed unavailable error", err)
				}
				recovered = true
			}()
			c.MSet(pairs)
		}()
		c.MDelete(keys) // a failed owner's copies are gone: degrades, never raises
		for _, k := range keys {
			if n := mc.hot.InflightWrites(k); n != 0 {
				t.Errorf("%d write registration(s) leaked on %q", n, k)
			}
		}

		// Reconfigure, rewrite the key on its surviving owner, and heat it
		// past the promotion threshold: with no registration left behind,
		// the entry must come up spreadable.
		mc.CrashNode(victim)
		c.Set(k, value(ki))
		for i := 0; i < 2*threshold; i++ {
			if _, ok := c.Get(k); !ok {
				t.Fatal("rewritten key not readable")
			}
		}
		e := mc.hot.Lookup(k)
		if e == nil {
			t.Fatal("key was not promoted")
		}
		if e.Warming {
			t.Error("promoted entry stuck Warming: its reads will never spread")
		}
	})
	env.Run()
	if !recovered {
		t.Fatal("typed panic never observed")
	}
}
