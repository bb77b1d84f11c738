package core

import (
	"bytes"
	"fmt"
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

// TestNodeFailureUnderFannedOutBatch: a memory node that fail-stops while a
// three-owner MSet or MGet is between rounds takes its own group with it
// and nothing else. The live owners' plans absorb and settle as if the dead
// node had not been in the batch — their pairs are stored and readable,
// their keys hit — and the dead owner's group is the only thing unknowable:
// a write raises the typed unavailable error while the pool still routes to
// the dead node, or is stored again on the keys' new owners once CrashNode
// has reconfigured it; a read degrades to misses, each counted once. No plan
// is left with a staged, unpublished block on a live node (allocated =
// published there, under exact free tracking), and every plan of the pass —
// the dead group's included — is back in its pool after the unwind.
func TestNodeFailureUnderFannedOutBatch(t *testing.T) {
	const n = 24
	for op, rounds := range map[string]int64{"MSet": 3, "MGet": 2} {
		for _, reconfigure := range []bool{false, true} {
			for halfRTTs := int64(1); halfRTTs < 2*rounds; halfRTTs += 2 { // each round in flight, in turn
				env := sim.NewEnv(6)
				mc := NewMultiCluster(env, 3, DefaultOptions(3000, 3000*320))
				for i := 0; i < mc.NumNodes(); i++ {
					mc.Node(i).MN.EnableFreeTracking()
				}
				victim := mc.NodeID(1)
				rtt := mc.nodes[victim].MN.Node.Config().RTT
				name := fmt.Sprintf("%s reconfigure=%v fault at %d/2 RTT", op, reconfigure, halfRTTs)
				env.Go("c", func(p *sim.Proc) {
					m := mc.NewClient(p)
					keys, old, fresh := make([][]byte, n), make([]KV, n), make([]KV, n)
					doomed := make([]bool, n)
					for i := range keys {
						keys[i] = key(i)
						old[i], fresh[i] = KV{Key: keys[i], Value: value(i)}, KV{Key: keys[i], Value: value(100 + i)}
						doomed[i] = mc.OwnerOf(keys[i]) == victim
					}
					// Twice, so the pools hold every plan a pass of this size takes.
					for r := 0; r < 2; r++ {
						m.MSet(old)
						m.MGet(keys)
					}
					pooled := func() (total int) {
						for _, id := range sortedNodeIDs(m.clients) {
							c := m.clients[id]
							if len(c.getPlans)+len(c.setPlans)+len(c.delPlans) != 0 {
								t.Errorf("%s: node %d's client still holds staged plans", name, id)
							}
							total += len(c.gets.free) + len(c.sets.free)
						}
						return total
					}
					plans := pooled()
					p.Sleep(10 * rtt) // quiet fabric: the rounds below start on time
					env.Go("fault", func(fp *sim.Proc) {
						fp.Sleep(halfRTTs * rtt / 2)
						if reconfigure {
							mc.CrashNode(victim)
						} else {
							mc.nodes[victim].MN.Node.Fail()
						}
					})
					want, start := old, p.Now()
					if op == "MSet" {
						err := catchUnavailable(func() { m.MSet(fresh) })
						if reconfigure && err != nil {
							t.Errorf("%s: raised %v, want the dead group stored again on its new owners", name, err)
						}
						if !reconfigure && !IsUnavailable(err) {
							t.Errorf("%s: returned %v, want the typed unavailable error", name, err)
						}
						want = fresh
					} else {
						before := m.Stats()
						vals, oks := m.MGet(keys)
						for i := range keys {
							if !doomed[i] && (!oks[i] || !bytes.Equal(vals[i], old[i].Value)) {
								t.Errorf("%s: key %d on a live owner: ok=%v", name, i, oks[i])
							}
							if doomed[i] && oks[i] && !bytes.Equal(vals[i], old[i].Value) {
								t.Errorf("%s: key %d read a wrong value off the dying node", name, i)
							}
						}
						if st := m.Stats(); st.Gets-before.Gets != n || st.Hits+st.Misses != st.Gets {
							t.Errorf("%s: %d keys accounted as %d gets (%d hits + %d misses overall)",
								name, n, st.Gets-before.Gets, st.Hits, st.Misses)
						}
					}
					if p.Now()-start < 10*rtt {
						t.Errorf("%s: the batch never waited out a completion timeout: the fault missed it", name)
					}
					if got := pooled(); got != plans {
						t.Errorf("%s: %d plans pooled before the batch, %d after the unwind", name, plans, got)
					}
					if !reconfigure {
						mc.CrashNode(victim) // so the checks below route around it
					}
					lost := 0
					for i := range keys {
						v, ok := m.Get(keys[i])
						switch {
						case ok && bytes.Equal(v, want[i].Value):
						case doomed[i] && !ok && (op == "MGet" || !reconfigure):
							lost++ // died with the node, and nobody owed it a re-store
						default:
							t.Errorf("%s: key %d (doomed=%v) reads ok=%v afterwards", name, i, doomed[i], ok)
						}
					}
					if lost == 0 && (op == "MGet" || !reconfigure) {
						t.Errorf("%s: the victim owned nothing; the case proves nothing", name)
					}
					for _, id := range mc.order {
						c := m.clientFor(id)
						if pub, used := publishedBytes(c), c.cl.MN.UsedBytes; pub != used {
							t.Errorf("%s: live node %d has %d bytes allocated, %d published", name, id, used, pub)
						}
					}
				})
				env.Run()
			}
		}
	}
}
