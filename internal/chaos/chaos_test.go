package chaos

import (
	"math/rand"
	"testing"

	"ditto/internal/core"
	"ditto/internal/sim"
)

// The six fault schedules. Each one targets a crash-tolerance
// safeguard built in earlier PRs and carries at least one invariant
// that fails if that safeguard is reverted:
//
//   - MN crash mid-reshard     → CrashNode's atomic ring+membership
//     update and ring.Without stability (survivor keys keep owners).
//   - resharder killed mid-way → spawnResharder's OnCrash respawn and
//     the shared reshardState (reshard completes, zero keys lost).
//   - replica node loss        → invalidate-first replica writes and
//     hotset crash wake/lock stealing (no stale spread reads).
//   - reclaimer killed         → spawnReclaimer's OnCrash respawn and
//     verb-plan eviction free accounting (no double free, no wedge).
//   - MN crash mid-reclaim, two tenants → quota-steered victim
//     nomination and per-tenant byte accounting (the in-quota tenant
//     loses nothing outside the crashed node, and every surviving
//     node's tenant cells still sum to its live heap bytes).
//   - stale hints across crash+reshard+reclaim → the speculative Get's
//     read-validate fallback ladder and the incarnation/free-stamp
//     discipline (hints are never invalidated, yet deleted keys stay
//     deleted and no read returns another tenant's bytes).

// TestChaosMNCrashMidReshard crashes a seed-chosen original node while
// an AddNode reshard is migrating keys onto a new one, with a reader
// sampling throughout. A key may disappear only if the victim owned it
// under the old OR the new ring (its single copy lived on one of the
// two); every other key must keep its exact confirmed value, and the
// reconfigured pool must converge.
func TestChaosMNCrashMidReshard(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const keys = 600
		h := New(t, seed, 4, keys, core.DefaultOptions(8000, 8000*320))
		mc, env, fs := h.MC, h.Env, h.FS
		done := false
		finished := false
		env.Go("driver", func(p *sim.Proc) {
			c := mc.NewClient(p)
			for i := 0; i < keys; i++ {
				h.MustSet(c, i, 1)
			}
			oldOwner := make([]int, keys)
			for i := range oldOwner {
				oldOwner[i] = mc.OwnerOf(Key(i))
			}
			victim := mc.NodeID(fs.Rand().Intn(mc.NumNodes()))
			newID := mc.AddNode()
			h.TrackNode(newID)
			newOwner := make([]int, keys)
			for i := range newOwner {
				newOwner[i] = mc.OwnerOf(Key(i))
			}
			tCrash := fs.Between(env.Now()+20_000, env.Now()+300_000,
				"crash-mn", func(*sim.Proc) { mc.CrashNode(victim) })
			mc.WaitReshard(p)
			for env.Now() <= tCrash {
				p.Sleep(50_000)
			}
			survivors, lost := 0, 0
			for i := 0; i < keys; i++ {
				mayLose := oldOwner[i] == victim || newOwner[i] == victim
				if _, ok := h.Get(c, i); !ok {
					if !mayLose {
						h.Failf("key %d lost but neither of its owners crashed (old=%d new=%d victim=%d)",
							i, oldOwner[i], newOwner[i], victim)
					}
					lost++
					continue
				}
				survivors++
			}
			if survivors == 0 {
				h.Failf("every key lost after one crash of %d nodes", 4)
			}
			h.CheckConverged(c, 0, keys)
			done = true
			if mc.NodeCrashes != 1 {
				h.Failf("NodeCrashes=%d, want 1", mc.NodeCrashes)
			}
			finished = true
		})
		env.Go("reader", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
			c := mc.NewClient(p)
			// Deadline-bounded: if the driver wedges (a reverted respawn
			// hook), the reader must drain too so the sim runs out of
			// events and the finished check reports the wedge.
			for !done && env.Now() < 60_000_000 {
				h.Get(c, rng.Intn(keys))
				p.Sleep(2_000)
			}
		})
		env.Run()
		if !finished {
			h.Failf("driver never finished (reshard or recovery wedged)")
		}
	})
}

// TestChaosResharderKilledMidMigration kills the resharder process one
// or two times (seed-chosen) while a RemoveNode drain is migrating
// keys. No memory node dies, so the respawned resharder must finish the
// drain with ZERO keys lost — and the model must stay exact throughout.
func TestChaosResharderKilledMidMigration(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const keys = 500
		h := New(t, seed, 3, keys, core.DefaultOptions(6000, 6000*320))
		mc, env, fs := h.MC, h.Env, h.FS
		done := false
		finished := false
		killsLanded := 0
		env.Go("driver", func(p *sim.Proc) {
			c := mc.NewClient(p)
			for i := 0; i < keys; i++ {
				h.MustSet(c, i, 1)
			}
			drop := mc.NodeID(fs.Rand().Intn(mc.NumNodes()))
			mc.RemoveNode(drop)
			kill := func(*sim.Proc) {
				if rp := env.FindProc("resharder"); rp != nil && env.Kill(rp) {
					killsLanded++
				}
			}
			fs.Between(env.Now()+20_000, env.Now()+250_000, "kill-resharder", kill)
			if fs.Rand().Intn(2) == 0 {
				fs.Between(env.Now()+260_000, env.Now()+500_000, "kill-resharder-2", kill)
			}
			mc.WaitReshard(p)
			for i := 0; i < keys; i++ {
				if _, ok := h.Get(c, i); !ok {
					h.Failf("key %d lost to a resharder crash (no memory node died)", i)
				}
			}
			done = true
			if int(mc.ReshardRestarts) != killsLanded {
				h.Failf("ReshardRestarts=%d but %d kills landed", mc.ReshardRestarts, killsLanded)
			}
			h.CheckConverged(c, 0, keys)
			finished = true
		})
		env.Go("reader", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed ^ 0x51ed2701))
			c := mc.NewClient(p)
			for !done && env.Now() < 60_000_000 {
				h.Get(c, rng.Intn(keys))
				p.Sleep(1_500)
			}
		})
		env.Run()
		if !finished {
			h.Failf("reshard never completed after %d resharder kills", killsLanded)
		}
	})
}

// TestChaosReplicaNodeLossUnderSpreadReads promotes a handful of hot
// keys (replication factor 2), then crashes a seed-chosen node in the
// middle of a mixed read/write storm over those keys. The per-read
// checks carry the invariant: a hit must be the latest confirmed
// version — a stale replica surviving an invalidate-first write, or a
// read routed to a dead replica's ghost copy, fails the run.
func TestChaosReplicaNodeLossUnderSpreadReads(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const keys = 64
		const hot = 8
		h := New(t, seed, 4, keys, core.DefaultOptions(4000, 4000*320))
		mc, env, fs := h.MC, h.Env, h.FS
		mc.EnableHotKeyReplication(2, 8, 32)
		finished := false
		env.Go("driver", func(p *sim.Proc) {
			c := mc.NewClient(p)
			for i := 0; i < keys; i++ {
				h.MustSet(c, i, 1)
			}
			// Hammer the hot subset until promotion happens.
			for r := 0; r < 40; r++ {
				for i := 0; i < hot; i++ {
					h.Get(c, i)
				}
			}
			victim := mc.NodeID(fs.Rand().Intn(mc.NumNodes()))
			tCrash := fs.Between(env.Now()+10_000, env.Now()+200_000,
				"crash-replica-node", func(*sim.Proc) { mc.CrashNode(victim) })
			rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
			for env.Now() < tCrash+400_000 {
				i := rng.Intn(hot)
				if rng.Intn(6) == 0 {
					h.BumpSet(c, i)
				} else {
					h.Get(c, i)
				}
				p.Sleep(1_000)
			}
			if mc.NodeCrashes != 1 {
				h.Failf("NodeCrashes=%d, want 1", mc.NodeCrashes)
			}
			h.CheckConverged(c, 0, keys)
			finished = true
		})
		// A second independent reader spreads load across replicas
		// concurrently with the writer — the interleaving that exposes
		// stale copies if invalidate-first ordering is reverted.
		env.Go("spreader", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
			c := mc.NewClient(p)
			for !finished && env.Now() < 60_000_000 {
				h.Get(c, rng.Intn(hot))
				p.Sleep(900)
			}
		})
		env.Run()
		if !finished {
			h.Failf("driver wedged across the replica-node crash")
		}
	})
}

// TestChaosMNCrashMidReclaimTwoTenants runs a noisy over-quota tenant's
// write churn past pool capacity (background reclaimers continuously
// evicting, quota steering pointed at the noisy tenant) alongside a
// small in-quota tenant, then crashes a seed-chosen node mid-reclaim.
// Invariants through recovery:
//
//   - the in-quota tenant loses NO key outside the crashed node's
//     ownership — sustained quota-steered reclaim never chose one of
//     its victims, and the crash takes only what it hosted;
//   - every surviving node's per-tenant accounting cells sum exactly to
//     its live heap bytes (no drift through evictions, overwrites, or
//     the crash window's ambiguous writes);
//   - free tracking (armed by the harness) panics on any double free;
//   - the reconfigured pool converges for both tenants.
func TestChaosMNCrashMidReclaimTwoTenants(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const quietKeys = 40
		const span = 4000 // noisy churn keys, ~1.6x pool capacity
		const keys = quietKeys + span
		h := New(t, seed, 3, keys, core.DefaultOptions(2500, 2500*320))
		h.ValSize = 240
		mc, env, fs := h.MC, h.Env, h.FS
		// Tenant mode BEFORE any write (accounting is gated on it). The
		// noisy tenant's quota binds at ~200 KB — far below the churn's
		// working set — so reclaim steers at it for the whole run; the
		// quiet tenant's never binds.
		mc.SetTenantQuota(1, 200*1024)
		mc.SetTenantQuota(2, 1<<40)
		for i := 0; i < mc.NumNodes(); i++ {
			mc.Node(i).EnableBackgroundReclaim(0, 0)
		}
		finished := false
		crashed := false
		env.Go("driver", func(p *sim.Proc) {
			noisy := mc.NewClient(p)
			noisy.BindTenant(1)
			quiet := mc.NewClient(p)
			quiet.BindTenant(2)
			for i := 0; i < quietKeys; i++ {
				h.MustSet(quiet, i, 1)
			}
			owner := make([]int, quietKeys)
			for i := range owner {
				owner[i] = mc.OwnerOf(Key(i))
			}
			victim := mc.NodeID(fs.Rand().Intn(mc.NumNodes()))
			fs.Between(1_500_000, 5_000_000, "crash-mn-mid-reclaim", func(*sim.Proc) {
				mc.CrashNode(victim)
				crashed = true
			})
			rng := rand.New(rand.NewSource(seed ^ 0x3c6ef372))
			for i := 0; i < span; i++ {
				h.Set(noisy, quietKeys+i, 1)
				if i%8 == 0 { // keep the quiet tenant's reads flowing
					h.Get(quiet, rng.Intn(quietKeys))
				}
			}
			if !crashed {
				h.Failf("crash never landed inside the churn window")
			}
			if mc.NodeCrashes != 1 {
				h.Failf("NodeCrashes=%d, want 1", mc.NodeCrashes)
			}
			// Quota invariant through sustained reclaim + crash: the
			// in-quota tenant's only legal losses are the crashed node's.
			for i := 0; i < quietKeys; i++ {
				if _, ok := h.Get(quiet, i); !ok && owner[i] != victim {
					h.Failf("in-quota tenant lost key %d owned by surviving node %d (victim=%d)",
						i, owner[i], victim)
				}
			}
			// Accounting identity on every surviving node: tenant cells
			// sum to live heap bytes, through evictions and the crash.
			for i := 0; i < mc.NumNodes(); i++ {
				cl := mc.Node(i)
				var sum int64
				for tnt := 0; tnt < 3; tnt++ {
					sum += cl.TenantUsage(core.TenantID(tnt))
				}
				if sum != int64(cl.MN.UsedBytes) {
					h.Failf("node %d: tenant usage %d != live bytes %d after crash+reclaim",
						mc.NodeID(i), sum, cl.MN.UsedBytes)
				}
			}
			h.CheckConverged(quiet, 0, quietKeys)
			// The noisy tenant converges only eventually: while it is over
			// quota, steering narrows every eviction sample to ITS keys, so
			// even a freshly rewritten one is legal fodder. Lifting the
			// quota (the operator's post-incident move) restores the global
			// policy — but the crash-shrunk pool is still draining over
			// budget, and under LFU every once-written object ties at
			// freq 1, so fresh rewrites stay legal victims until the drain
			// settles. Bounded rewrite-and-read retries are the sound
			// check; a key that cannot stick at all means a wedge.
			mc.SetTenantQuota(1, 1<<40)
			h.CheckEventuallyConverged(noisy, keys-200, keys)
			finished = true
		})
		env.Run()
		if !finished {
			h.Failf("driver never finished (reclaim or recovery wedged)")
		}
	})
}

// TestChaosReclaimerKilledUnderChurn kills background reclaimers (one
// or two kills, seed-chosen) while a write churn runs the pool well
// past capacity. No node dies, so every write must land; memnode free
// tracking (armed by the harness) panics the run on any double free in
// the eviction/reclaim paths; and the respawned reclaimers must keep
// evicting — the pool must not wedge.
func TestChaosReclaimerKilledUnderChurn(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const span = 6000
		h := New(t, seed, 2, span, core.DefaultOptions(2500, 2500*320))
		h.ValSize = 240
		mc, env, fs := h.MC, h.Env, h.FS
		for i := 0; i < mc.NumNodes(); i++ {
			mc.Node(i).EnableBackgroundReclaim(0, 0)
		}
		finished := false
		killsLanded := 0
		kill := func(*sim.Proc) {
			if rp := env.FindProc("reclaimer"); rp != nil && env.Kill(rp) {
				killsLanded++
			}
		}
		fs.Between(2_000_000, 6_000_000, "kill-reclaimer", kill)
		fs.Between(6_500_000, 12_000_000, "kill-reclaimer-2", kill)
		env.Go("churn", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed ^ 0x61c88647))
			c := mc.NewClient(p)
			for i := 0; i < span; i++ {
				h.MustSet(c, i, 1)
				if i%16 == 0 && i > 50 {
					h.Get(c, i-rng.Intn(40))
				}
			}
			if killsLanded == 0 {
				h.Failf("no reclaimer kill landed; the schedule proved nothing")
			}
			restarts := 0
			evictions := int64(0)
			for i := 0; i < mc.NumNodes(); i++ {
				restarts += int(mc.Node(i).ReclaimerRestarts())
				evictions += mc.Node(i).ReclaimerStats().Evictions
			}
			if restarts != killsLanded {
				h.Failf("reclaimer restarts=%d but %d kills landed", restarts, killsLanded)
			}
			if evictions == 0 {
				h.Failf("respawned reclaimers never evicted under churn")
			}
			// The most recent window must be exact: churn overwrote
			// nothing here, so hits must carry the right versions and
			// the pool must still accept writes. It converges only
			// eventually: a rewrite is an out-of-place update, so it
			// allocates before it frees and keeps the pool under the
			// low watermark — the respawned reclaimers are evicting
			// THROUGH the rewrite pass, and every once-written key ties
			// at freq 1, so one rewritten a moment ago is a legal victim.
			// When a Set lost two round trips (WRITE+CAS and the sample's
			// FAA each joined a group) the pass shifted against the
			// reclaimer's rounds and seeds 5 and 13 lost two keys each to
			// exactly that: logging the evictor of every missing key
			// showed the reclaimer, 0.1–0.3 ms AFTER the key's rewrite had
			// landed (the victim's last_ts was the rewrite's), never a
			// lost write. So: bounded rewrite-and-read, as the sibling
			// schedule checks its pool under reclaim.
			h.CheckEventuallyConverged(c, span-200, span)
			finished = true
		})
		env.Run()
		if !finished {
			h.Failf("churn never completed (reclaimer loss wedged writes)")
		}
	})
}

// TestChaosStaleHintsAcrossCrashReshardReclaim is the only schedule
// that turns the client-side location cache ON — and then invalidates
// nothing, ever, while making every recorded hint stale in a different
// way: an MN crash drops a node's heap wholesale, an AddNode reshard
// migrates keys (freeing the source copies), quota-steered reclaim
// churns the noisy tenant's blocks through free/realloc cycles, and a
// writer bumps versions under an independent reader's feet. Speculative
// Gets ride those stale hints throughout; read-validate must reject
// every dead image. Invariants:
//
//   - a key deleted after the reshard settles stays deleted on every
//     re-read — including through a reader whose hint for it was
//     recorded before the delete and never dropped (no resurrection
//     from a freed-then-reused block);
//   - every hit parses exactly (parseVal): a speculative read that
//     returns another tenant's bytes — a stale hint landing on a
//     reallocated block — fails as corruption;
//   - the usual model checks on every read: no stale version, no
//     phantom, per-client monotonic;
//   - the in-quota tenant loses no key outside the crashed node's
//     ownership, and the pool converges for both tenants.
func TestChaosStaleHintsAcrossCrashReshardReclaim(t *testing.T) {
	RunSeeds(t, func(t *testing.T, seed int64) {
		const quietKeys = 40
		const tombKeys = 16
		const span = 4000 // noisy churn keys, ~1.6x pool capacity
		const keys = quietKeys + tombKeys + span
		opts := core.DefaultOptions(2500, 2500*320)
		// Far fewer slots than live hints per client, so CLOCK eviction
		// churns the hint set at the same time the hints themselves rot.
		opts.LocCacheSlots = 64
		h := New(t, seed, 3, keys, opts)
		h.ValSize = 240
		mc, env, fs := h.MC, h.Env, h.FS
		mc.SetTenantQuota(1, 200*1024) // noisy: binds far below the churn
		mc.SetTenantQuota(2, 1<<40)    // quiet: never binds
		for i := 0; i < mc.NumNodes(); i++ {
			mc.Node(i).EnableBackgroundReclaim(0, 0)
		}
		finished := false
		crashed := false
		deleted := false
		done := false
		var noisy, quiet, spec *core.MultiClient
		env.Go("driver", func(p *sim.Proc) {
			noisy = mc.NewClient(p)
			noisy.BindTenant(1)
			quiet = mc.NewClient(p)
			quiet.BindTenant(2)
			for i := 0; i < quietKeys; i++ {
				h.MustSet(quiet, i, 1)
			}
			// Tombstone keys: written and hinted now, deleted later. The
			// independent reader hints them too — ITS hints survive the
			// delete (only the deleting client drops its own).
			for i := 0; i < tombKeys; i++ {
				h.MustSet(noisy, quietKeys+i, 1)
				h.Get(noisy, quietKeys+i)
			}
			owner := make([]int, quietKeys)
			for i := range owner {
				owner[i] = mc.OwnerOf(Key(i))
			}
			victim := mc.NodeID(fs.Rand().Intn(mc.NumNodes()))
			newID := mc.AddNode()
			h.TrackNode(newID)
			newOwner := make([]int, quietKeys)
			for i := range newOwner {
				newOwner[i] = mc.OwnerOf(Key(i))
			}
			fs.Between(1_500_000, 5_000_000, "crash-mn-stale-hints", func(*sim.Proc) {
				mc.CrashNode(victim)
				crashed = true
			})
			rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
			base := quietKeys + tombKeys
			for i := 0; i < span; i++ {
				h.Set(noisy, base+i, 1)
				if i%8 == 0 { // rot the reader's quiet hints by version
					h.BumpSet(quiet, rng.Intn(quietKeys))
				}
				if i%8 == 4 {
					h.Get(quiet, rng.Intn(quietKeys))
				}
			}
			if !crashed {
				h.Failf("crash never landed inside the churn window")
			}
			if mc.NodeCrashes != 1 {
				h.Failf("NodeCrashes=%d, want 1", mc.NodeCrashes)
			}
			// Delete only once the ring is stable: a delete racing a live
			// migration may legally flicker (deleteDirect's contract), and
			// this schedule's claim is about HINTS, not reshard ordering.
			mc.WaitReshard(p)
			for i := 0; i < tombKeys; i++ {
				noisy.Delete(Key(quietKeys + i))
			}
			deleted = true
			// Keep churning so the tombstones' freed blocks are reallocated
			// under live hints, then re-read them: deleted keys must stay
			// deleted through this client's full walk too.
			for r := 0; r < 4; r++ {
				for i := 0; i < span/8; i++ {
					h.BumpSet(noisy, base+rng.Intn(span))
				}
				for i := 0; i < tombKeys; i++ {
					if v, ok := h.Get(noisy, quietKeys+i); ok {
						h.Failf("deleted key %d resurrected (v%d) after churn round %d",
							quietKeys+i, v, r)
					}
				}
			}
			// Quota invariant through reclaim + crash, as in the two-tenant
			// reclaim schedule: the in-quota tenant's only legal losses are
			// the crashed node's (under either ring).
			for i := 0; i < quietKeys; i++ {
				if _, ok := h.Get(quiet, i); !ok && owner[i] != victim && newOwner[i] != victim {
					h.Failf("in-quota tenant lost key %d owned by surviving nodes %d/%d (victim=%d)",
						i, owner[i], newOwner[i], victim)
				}
			}
			h.CheckConverged(quiet, 0, quietKeys)
			done = true
			mc.SetTenantQuota(1, 1<<40)
			h.CheckEventuallyConverged(noisy, keys-200, keys)
			finished = true
		})
		// Independent speculating reader: its hints for the quiet and
		// tombstone keys are recorded early and never refreshed by the
		// driver's writes or deletes, so they go stale through every fault
		// in the schedule while it keeps reading through them.
		env.Go("speculator", func(p *sim.Proc) {
			spec = mc.NewClient(p)
			spec.BindTenant(2)
			rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
			for !done && env.Now() < 120_000_000 {
				i := rng.Intn(quietKeys + tombKeys)
				v, ok := h.Get(spec, i)
				if ok && deleted && i >= quietKeys {
					h.Failf("deleted key %d resurrected through a stale hint (v%d)", i, v)
				}
				p.Sleep(2_000)
			}
		})
		env.Run()
		if !finished {
			h.Failf("driver never finished (hint fallback, reshard, or reclaim wedged)")
		}
		// The schedule is vacuous if speculation never actually ran — or
		// if no stale hint was ever exercised. Require both outcomes.
		st := noisy.Stats()
		st.Add(quiet.Stats())
		st.Add(spec.Stats())
		if st.SpecGetHits == 0 {
			h.Failf("no speculative Get ever hit: the schedule exercised nothing")
		}
		if st.SpecGetFallbacks == 0 {
			h.Failf("no speculative Get ever fell back: no hint went stale under faults")
		}
	})
}
