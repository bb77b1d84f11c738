package core

// Model-based equivalence of the hot-key replication layer: with
// replication enabled, every observable result (Get/MGet values and
// presence, Delete outcomes, stats accounting) must match the
// unreplicated single-copy semantics — under both replica fan-out
// strategies, through write-heavy demotion, and across a live reshard.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// hotOptions returns a pool sized so nothing is evicted (observable
// equivalence of a cache demands an eviction-free regime, as in
// reshard_equiv_test.go).
func hotOptions(keys int) Options { return DefaultOptions(keys, keys*320) }

// TestReplicatedEquivalenceDuringLiveReshard drives a mixed workload —
// skewed Gets/MGets that trigger promotion, plus Sets/MSets/Deletes/
// MDeletes over the same keys — against an exact model, with a live
// AddNode reshard in the middle, under both replica fan-out strategies.
// Every read must return exactly the model's value, every delete
// outcome must match presence, the post-reshard sweep must hold exactly,
// and the replication machinery must actually have engaged (promotions
// and spread reads observed).
func TestReplicatedEquivalenceDuringLiveReshard(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		t.Run(strat.String(), func(t *testing.T) {
			const n = 400
			env := sim.NewEnv(31)
			mc := NewMultiCluster(env, 4, hotOptions(4*n))
			mc.SetStrategy(strat)
			mc.EnableHotKeyReplication(2, 4, 64)
			model := make(map[string][]byte)
			risky := make(map[string]bool) // deletes that raced the reshard window
			env.Go("mutator", func(p *sim.Proc) {
				m := mc.NewClient(p)
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < n; i++ {
					m.Set(key(i), value(i))
					model[string(key(i))] = value(i)
				}
				hot := func() int { return rng.Intn(8) } // the skewed tail
				for round := 0; round < 80; round++ {
					if round == 20 {
						mc.AddNode()
					}
					// Skewed reads: hammer the hot tail so keys cross the
					// promotion threshold, plus uniform background reads.
					for j := 0; j < 6; j++ {
						k := hot()
						if j >= 4 {
							k = rng.Intn(n)
						}
						v, ok := m.Get(key(k))
						want, present := model[string(key(k))]
						if risky[string(key(k))] && mc.Resharding() {
							continue
						}
						if ok != present {
							t.Errorf("round %d (resharding=%v) key %d: ok=%v present=%v",
								round, mc.Resharding(), k, ok, present)
						} else if present && !bytes.Equal(v, want) {
							t.Errorf("round %d key %d: stale value", round, k)
						}
					}
					gets := make([][]byte, 8)
					for j := range gets {
						if j < 4 {
							gets[j] = key(hot())
						} else {
							gets[j] = key(rng.Intn(n))
						}
					}
					vs, oks := m.MGet(gets)
					for j := range gets {
						want, present := model[string(gets[j])]
						if risky[string(gets[j])] && mc.Resharding() {
							continue
						}
						if oks[j] != present {
							t.Errorf("round %d (resharding=%v) MGet %s: ok=%v present=%v",
								round, mc.Resharding(), gets[j], oks[j], present)
						} else if present && !bytes.Equal(vs[j], want) {
							t.Errorf("round %d MGet %s: stale value", round, gets[j])
						}
					}
					// Writes hit the hot tail too: write-through must keep
					// every replica equal to the model.
					k := hot()
					v := value(k*13 + round)
					m.Set(key(k), v)
					model[string(key(k))] = v
					delete(risky, string(key(k)))
					batch := make([]KV, 3)
					for j := range batch {
						bk := rng.Intn(n)
						bv := value(bk*7 + round)
						batch[j] = KV{Key: key(bk), Value: bv}
						model[string(key(bk))] = bv
						delete(risky, string(key(bk)))
					}
					m.MSet(batch)
					if round%4 == 0 {
						dk := key(rng.Intn(n))
						ok := m.Delete(dk)
						_, present := model[string(dk)]
						if present && !ok {
							t.Errorf("round %d: present key %s not deleted", round, dk)
						}
						delete(model, string(dk))
						if mc.Resharding() {
							risky[string(dk)] = true
						}
					}
					if round%7 == 0 {
						dels := [][]byte{key(hot()), key(rng.Intn(n))}
						oks := m.MDelete(dels)
						for j, dk := range dels {
							_, present := model[string(dk)]
							if present && !oks[j] {
								t.Errorf("round %d: present key %s not MDeleted", round, dk)
							}
							delete(model, string(dk))
							if mc.Resharding() {
								risky[string(dk)] = true
							}
						}
					}
				}
				mc.WaitReshard(p)
				// Post-reshard sweep: exact model equality, no resurrected
				// deletes, no stale replica readable anywhere.
				all := make([][]byte, n)
				for i := range all {
					all[i] = key(i)
				}
				vs, oks := m.MGet(all)
				for i := range all {
					want, present := model[string(all[i])]
					if oks[i] != present {
						t.Errorf("post-reshard key %d: ok=%v present=%v", i, oks[i], present)
					} else if present && !bytes.Equal(vs[i], want) {
						t.Errorf("post-reshard key %d: stale value", i)
					}
				}
				// And per-key sweeps cover every rotation position, so a
				// stale copy on ANY replica would be caught.
				for pass := 0; pass < 4; pass++ {
					for i := 0; i < 16; i++ {
						v, ok := m.Get(key(i))
						want, present := model[string(key(i))]
						if ok != present || (present && !bytes.Equal(v, want)) {
							t.Errorf("rotation sweep key %d: ok=%v present=%v", i, ok, present)
						}
					}
				}
				s := m.Stats()
				if s.Gets != s.Hits+s.Misses {
					t.Errorf("accounting broken: %+v", s)
				}
			})
			env.Run()
			if mc.Promotions == 0 {
				t.Error("no key was ever promoted — the test exercised nothing")
			}
			if mc.SpreadReads == 0 {
				t.Error("no read was served by a replica")
			}
			if mc.Reshards != 1 || mc.NumNodes() != 5 {
				t.Errorf("reshards=%d nodes=%d", mc.Reshards, mc.NumNodes())
			}
		})
	}
}

// TestReplicatedMatchesUnreplicated runs the same deterministic skewed
// workload twice — replication off and on (both fan-out strategies) —
// and requires identical observable results: every Get's (value, ok)
// sequence and the aggregate logical-operation counts must match.
func TestReplicatedMatchesUnreplicated(t *testing.T) {
	type obs struct {
		vals  []string
		stats Stats
	}
	run := func(enable bool, strat exec.Strategy) obs {
		const n = 200
		env := sim.NewEnv(5)
		mc := NewMultiCluster(env, 3, hotOptions(3*n))
		if enable {
			mc.SetStrategy(strat)
			mc.EnableHotKeyReplication(2, 3, 32)
		}
		var o obs
		env.Go("c", func(p *sim.Proc) {
			m := mc.NewClient(p)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < n; i++ {
				m.Set(key(i), value(i))
			}
			for round := 0; round < 60; round++ {
				for j := 0; j < 8; j++ {
					k := rng.Intn(6) // heavily skewed
					if j >= 6 {
						k = rng.Intn(n)
					}
					v, ok := m.Get(key(k))
					o.vals = append(o.vals, fmt.Sprintf("%d:%v:%s", k, ok, v))
				}
				k := rng.Intn(6)
				m.Set(key(k), value(k*31+round))
				if round%9 == 0 {
					m.Delete(key(rng.Intn(n)))
				}
			}
			o.stats = m.Stats()
		})
		env.Run()
		if enable && mc.Promotions == 0 {
			t.Fatal("replication never engaged")
		}
		return o
	}
	base := run(false, exec.Serial)
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		got := run(true, strat)
		if len(base.vals) != len(got.vals) {
			t.Fatalf("%v: observation counts differ: %d vs %d", strat, len(base.vals), len(got.vals))
		}
		for i := range base.vals {
			if base.vals[i] != got.vals[i] {
				t.Fatalf("%v: observation %d differs: %q vs %q", strat, i, base.vals[i], got.vals[i])
			}
		}
		// Logical-operation ledgers must agree: replica maintenance
		// (fan-out stores, invalidations, promotion snapshots) is not a
		// logical operation and must not leak into any counter.
		if base.stats.Gets != got.stats.Gets || base.stats.Hits != got.stats.Hits ||
			base.stats.Misses != got.stats.Misses || base.stats.Sets != got.stats.Sets ||
			base.stats.Deletes != got.stats.Deletes {
			t.Fatalf("%v: ledgers differ:\nunreplicated %+v\nreplicated   %+v", strat, base.stats, got.stats)
		}
	}
}

// TestConcurrentSpreadReadsAreMonotonic runs one writer bumping a
// versioned value on a handful of hot keys against concurrent readers
// hammering the same keys — the regime where promotions race
// unreplicated writes and the write-repair path (resyncAfterWrite) does
// real work. With a single writer per key, linearizability implies every
// reader's observed version sequence per key is non-decreasing: a
// decrease would mean a spread read served a pre-write replica AFTER a
// newer value was returned — exactly the stale-replica bug the repair
// protocol exists to prevent.
func TestConcurrentSpreadReadsAreMonotonic(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		for _, seed := range []int64{17, 99, 1234} {
			seed := seed
			t.Run(fmt.Sprintf("%v/seed%d", strat, seed), func(t *testing.T) {
				testMonotonicSpreadReads(t, strat, seed)
			})
		}
	}
}

func testMonotonicSpreadReads(t *testing.T, strat exec.Strategy, seed int64) {
	const hotKeys = 4
	env := sim.NewEnv(seed)
	mc := NewMultiCluster(env, 4, hotOptions(2000))
	mc.SetStrategy(strat)
	mc.EnableHotKeyReplication(3, 3, 32)
	version := func(v []byte) int {
		n := 0
		fmt.Sscanf(string(v), "v%d", &n)
		return n
	}
	env.Go("writer", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < hotKeys; i++ {
			m.Set(key(i), []byte("v0"))
		}
		for v := 1; v <= 200; v++ {
			m.Set(key(v%hotKeys), []byte(fmt.Sprintf("v%d", v)))
		}
	})
	for r := 0; r < 6; r++ {
		env.Go("reader", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond) // let the initial values land
			m := mc.NewClient(p)
			last := make([]int, hotKeys)
			for i := 0; i < 400; i++ {
				k := i % hotKeys
				v, ok := m.Get(key(k))
				if !ok {
					continue // not yet written
				}
				if got := version(v); got < last[k] {
					t.Errorf("key %d: version went backwards %d → %d (stale replica)",
						k, last[k], got)
				} else {
					last[k] = got
				}
			}
		})
	}
	env.Run()
	if mc.Promotions == 0 || mc.SpreadReads == 0 {
		t.Fatalf("replication never engaged: promotions=%d spread=%d",
			mc.Promotions, mc.SpreadReads)
	}
}

// TestReplicatedKeysSurviveRemoveNode drains a node while hot keys are
// replicated with factor 3 (copies on every other node) — so every hot
// key whose primary is the drained node has its new ring owner among
// its own replica nodes. The resharder must dissolve the replica sets
// BEFORE its migration scan: a replica copy reaching the scan would
// make the migrating primary copy look like a duplicate (its removal
// garbage-collects the authoritative value), and the entry's later
// demotion would then delete the only surviving copy — silently losing
// keys no unreplicated pool would lose.
func TestReplicatedKeysSurviveRemoveNode(t *testing.T) {
	const n = 300
	env := sim.NewEnv(23)
	mc := NewMultiCluster(env, 4, hotOptions(4*n))
	mc.EnableHotKeyReplication(3, 3, 64)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < n; i++ {
			m.Set(key(i), value(i))
		}
		// Promote a band of keys — with n spread over 4 nodes, some of
		// them are primaried on the node about to drain.
		for pass := 0; pass < 8; pass++ {
			for i := 0; i < 32; i++ {
				m.Get(key(i))
			}
		}
		if mc.Promotions == 0 {
			t.Fatal("nothing promoted; the test exercises nothing")
		}
		mc.RemoveNode(mc.NodeID(0))
		mc.WaitReshard(p)
		for i := 0; i < n; i++ {
			v, ok := m.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d lost or stale after draining a replicated key's primary (ok=%v)", i, ok)
			}
		}
	})
	env.Run()
	if mc.NumNodes() != 3 || mc.Reshards != 1 {
		t.Fatalf("nodes=%d reshards=%d", mc.NumNodes(), mc.Reshards)
	}
}

// TestWriteHeavyKeyIsDemoted pins load-aware demotion: a promoted key
// whose writes overtake its spread reads must leave the replicated set
// (and its reads must still be exact afterwards).
func TestWriteHeavyKeyIsDemoted(t *testing.T) {
	const n = 100
	env := sim.NewEnv(9)
	mc := NewMultiCluster(env, 3, hotOptions(3*n))
	mc.EnableHotKeyReplication(2, 3, 32)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < n; i++ {
			m.Set(key(i), value(i))
		}
		for j := 0; j < 8; j++ { // promote key 0
			m.Get(key(0))
		}
		if mc.Promotions == 0 {
			t.Fatal("key 0 was not promoted")
		}
		last := []byte(nil)
		for w := 0; w < 3*demoteMinWrites; w++ {
			last = value(w + 1000)
			m.Set(key(0), last)
		}
		if mc.Demotions == 0 {
			t.Error("write-heavy key was never demoted")
		}
		for j := 0; j < 6; j++ {
			v, ok := m.Get(key(0))
			if !ok || !bytes.Equal(v, last) {
				t.Fatalf("read %d after demotion: ok=%v", j, ok)
			}
		}
	})
	env.Run()
}

// TestDeleteDemotesAndRemovesEverywhere pins Delete's ordering: after a
// replicated key's Delete returns, no rotation position may serve it.
func TestDeleteDemotesAndRemovesEverywhere(t *testing.T) {
	const n = 100
	env := sim.NewEnv(12)
	mc := NewMultiCluster(env, 4, hotOptions(4*n))
	mc.EnableHotKeyReplication(3, 3, 32)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < n; i++ {
			m.Set(key(i), value(i))
		}
		for j := 0; j < 10; j++ {
			m.Get(key(1))
		}
		if mc.SpreadReads == 0 {
			t.Fatal("reads never spread")
		}
		if !m.Delete(key(1)) {
			t.Fatal("present key not deleted")
		}
		for j := 0; j < 8; j++ { // every rotation position of every node
			if _, ok := m.Get(key(1)); ok {
				t.Fatalf("deleted key readable on rotation %d", j)
			}
		}
		s := m.Stats()
		if s.Gets != s.Hits+s.Misses {
			t.Errorf("accounting broken: %+v", s)
		}
	})
	env.Run()
}

// TestReplicatedTrySetTypedAfterPrimaryFail: a write to a REPLICATED key
// whose primary fail-stops must surface a typed unavailable error
// through TrySet — not a panic — with the entry lock released and the
// copy set dissolved. This is the regression test for the replica
// fan-out panic→typed-error conversion (setReplicated/updateReplicas/
// resyncAfterWrite returning errors instead of panicking): reverting
// those error returns turns the TrySet below back into a test-killing
// panic, and dittolint's typederr analyzer flags the reverted panic
// sites besides.
func TestReplicatedTrySetTypedAfterPrimaryFail(t *testing.T) {
	const n = 100
	env := sim.NewEnv(17)
	mc := NewMultiCluster(env, 3, hotOptions(3*n))
	mc.EnableHotKeyReplication(2, 3, 32)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < n; i++ {
			m.Set(key(i), value(i))
		}
		for j := 0; j < 8; j++ { // promote key 0
			m.Get(key(0))
		}
		e := mc.hot.Lookup(key(0))
		if e == nil {
			t.Fatal("key 0 was not promoted")
		}
		primary := e.Primary
		// Fail the primary's fabric WITHOUT reconfiguring the pool: the
		// replicated write path still routes to the dead node, so the
		// fan-out must fail typed, dissolve the entry, and release its
		// lock rather than wedge later writers.
		mc.nodes[primary].MN.Node.Fail()
		err := m.TrySet(key(0), value(1000))
		if err == nil {
			t.Fatal("TrySet through a failed primary returned nil")
		}
		if !IsUnavailable(err) {
			t.Fatalf("TrySet error not IsUnavailable: %v", err)
		}
		if mc.hot.Lookup(key(0)) != nil {
			t.Fatal("failed replicated write left the entry published")
		}
		// Reconfigure and retry: the write must land on a survivor (the
		// entry lock was released, so this writer is not deadlocked
		// behind the failed fan-out).
		mc.CrashNode(primary)
		if err := m.TrySet(key(0), value(1001)); err != nil {
			t.Fatalf("TrySet after CrashNode errored: %v", err)
		}
		if v, ok := m.Get(key(0)); !ok || !bytes.Equal(v, value(1001)) {
			t.Fatal("key not readable after reroute")
		}
	})
	env.Run()
}
