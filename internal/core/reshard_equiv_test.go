package core

// Equivalence of batched operations and of the two reshard strategies
// across live membership changes: MSet/MDelete batches must behave like
// their sequential counterparts while keys migrate, and the Doorbell
// resharder must produce results identical to the Serial one while
// finishing measurably faster.

import (
	"bytes"
	"math/rand"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// TestMultiMSetMDeleteDuringLiveReshard drives MSet and MDelete batches
// across a live AddNode reshard — under both reshard strategies — and
// checks every observation against an exact model, mirroring the
// Get/Set equivalence coverage in batch_test.go. Delete's one documented
// staleness window (a dead value transiently readable until the
// resharder's undo lands) is tolerated only WHILE the reshard is in
// flight; once it completes, deleted keys must be gone for good.
func TestMultiMSetMDeleteDuringLiveReshard(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		t.Run(strat.String(), func(t *testing.T) {
			env := sim.NewEnv(6)
			mc := NewMultiCluster(env, 2, DefaultOptions(4000, 4000*320))
			mc.SetStrategy(strat)
			model := make(map[string][]byte)
			// Keys whose deletion raced the reshard window: exempt from
			// strict absence checks until the reshard completes.
			risky := make(map[string]bool)
			env.Go("mutator", func(p *sim.Proc) {
				m := mc.NewClient(p)
				rng := rand.New(rand.NewSource(43))
				pairs := make([]KV, 0, 400)
				for i := 0; i < 400; i++ {
					pairs = append(pairs, KV{Key: key(i), Value: value(i)})
					model[string(key(i))] = value(i)
				}
				m.MSet(pairs)
				for round := 0; round < 60; round++ {
					if round == 5 {
						mc.AddNode()
					}
					batch := make([]KV, 6)
					for j := range batch {
						k := rng.Intn(500)
						v := value(k*7 + round)
						batch[j] = KV{Key: key(k), Value: v}
						model[string(key(k))] = v
						delete(risky, string(key(k)))
					}
					m.MSet(batch)

					dels := make([][]byte, 4)
					for j := range dels {
						dels[j] = key(rng.Intn(500))
					}
					oks := m.MDelete(dels)
					for j, d := range dels {
						_, present := model[string(d)]
						if present && !oks[j] {
							t.Errorf("round %d (resharding=%v): present key %s not deleted",
								round, mc.Resharding(), d)
						}
						if !present && oks[j] && !mc.Resharding() && !risky[string(d)] {
							t.Errorf("round %d: absent key %s reported deleted", round, d)
						}
						delete(model, string(d))
						if mc.Resharding() {
							risky[string(d)] = true
						}
					}

					gets := make([][]byte, 12)
					for j := range gets {
						gets[j] = key(rng.Intn(600))
					}
					vs, gok := m.MGet(gets)
					for j := range gets {
						want, present := model[string(gets[j])]
						if risky[string(gets[j])] && mc.Resharding() {
							continue // delete racing the migration window
						}
						if gok[j] != present {
							t.Errorf("round %d (resharding=%v) key %s: ok=%v, present=%v",
								round, mc.Resharding(), gets[j], gok[j], present)
						} else if present && !bytes.Equal(vs[j], want) {
							t.Errorf("round %d key %s: stale value", round, gets[j])
						}
					}
				}
				mc.WaitReshard(p)
				// Post-reshard sweep: the model must hold exactly — deleted
				// keys gone (no resurrection), written keys fresh.
				all := make([][]byte, 600)
				for i := range all {
					all[i] = key(i)
				}
				vs, oks := m.MGet(all)
				for i := range all {
					want, present := model[string(all[i])]
					if oks[i] != present {
						t.Errorf("post-reshard key %d: ok=%v, present=%v", i, oks[i], present)
					} else if present && !bytes.Equal(vs[i], want) {
						t.Errorf("post-reshard key %d: stale value", i)
					}
				}
				s := m.Stats()
				if s.Gets != s.Hits+s.Misses {
					t.Errorf("accounting broken: %+v", s)
				}
			})
			env.Run()
			if mc.Reshards != 1 || mc.NumNodes() != 3 {
				t.Errorf("reshards=%d nodes=%d", mc.Reshards, mc.NumNodes())
			}
		})
	}
}

// TestReshardStrategiesIdenticalAndDoorbellFaster pins the tentpole
// claim: with the same starting state, the Doorbell resharder migrates
// exactly the same keys to exactly the same readable end state as the
// Serial resharder — and completes the reshard in less virtual time.
func TestReshardStrategiesIdenticalAndDoorbellFaster(t *testing.T) {
	const n = 1500
	run := func(strat exec.Strategy) (map[string]string, int64, int64) {
		env := sim.NewEnv(13)
		mc := NewMultiCluster(env, 2, DefaultOptions(2*n, 2*n*320))
		mc.SetStrategy(strat)
		final := make(map[string]string)
		env.Go("c", func(p *sim.Proc) {
			c := mc.NewClient(p)
			for i := 0; i < n; i++ {
				c.Set(key(i), value(i))
			}
			mc.AddNode()
			mc.WaitReshard(p)
			for i := 0; i < n; i++ {
				if v, ok := c.Get(key(i)); ok {
					final[string(key(i))] = string(v)
				}
			}
		})
		env.Run()
		return final, mc.MigratedKeys, mc.ReshardNs
	}
	serialState, serialMoved, serialNs := run(exec.Serial)
	doorState, doorMoved, doorNs := run(exec.Doorbell)

	if len(serialState) != n || len(doorState) != n {
		t.Fatalf("keys readable after reshard: serial=%d doorbell=%d, want %d",
			len(serialState), len(doorState), n)
	}
	for k, v := range serialState {
		if doorState[k] != v {
			t.Fatalf("key %s differs across strategies", k)
		}
	}
	if serialMoved != doorMoved {
		t.Errorf("migrated keys differ: serial=%d doorbell=%d", serialMoved, doorMoved)
	}
	if doorNs >= serialNs {
		t.Errorf("doorbell reshard not faster: %d ns vs serial %d ns", doorNs, serialNs)
	}
	t.Logf("reshard time: serial=%dns doorbell=%dns (%.2fx), %d keys moved",
		serialNs, doorNs, float64(serialNs)/float64(doorNs), doorMoved)
}

// TestMDeleteHoldsAcrossRingSwitch deletes every key in batches while a
// reshard migrates them and while its completion flips the routing epoch
// mid-stream: no deletion may be lost. A batch whose routing decision
// went stale (ring switched between routing and issue) must re-route per
// key — otherwise a key migrated to its new owner in that window would
// survive its own deletion and resurface here.
func TestMDeleteHoldsAcrossRingSwitch(t *testing.T) {
	env := sim.NewEnv(21)
	const n = 600
	mc := NewMultiCluster(env, 2, DefaultOptions(3000, 3000*320))
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		pairs := make([]KV, n)
		keys := make([][]byte, n)
		for i := 0; i < n; i++ {
			keys[i] = key(i)
			pairs[i] = KV{Key: keys[i], Value: value(i)}
		}
		m.MSet(pairs)
		mc.AddNode()
		for lo := 0; lo < n; lo += 16 {
			hi := lo + 16
			if hi > n {
				hi = n
			}
			for j, ok := range m.MDelete(keys[lo:hi]) {
				if !ok {
					t.Errorf("present key %d not deleted (resharding=%v)", lo+j, mc.Resharding())
				}
			}
		}
		mc.WaitReshard(p)
		_, oks := m.MGet(keys)
		for i, ok := range oks {
			if ok {
				t.Errorf("key %d survived its deletion across the reshard", i)
			}
		}
	})
	env.Run()
}

// TestSerialReshardKeepsKeysUnderLoad re-runs the headline reshard
// invariant with the Serial strategy (the default elastic tests exercise
// Doorbell), so the demoted per-slot path keeps full coverage: every key
// stays readable with its exact value during and after the migration.
func TestSerialReshardKeepsKeysUnderLoad(t *testing.T) {
	env := sim.NewEnv(9)
	const n = 300
	mc := NewMultiCluster(env, 2, DefaultOptions(1500, 1500*320))
	mc.SetStrategy(exec.Serial)
	env.Go("c", func(p *sim.Proc) {
		c := mc.NewClient(p)
		for i := 0; i < n; i++ {
			c.Set(key(i), value(i))
		}
		mc.AddNode()
		during := 0
		for mc.Resharding() {
			i := int(p.Rand().Int63n(n))
			v, ok := c.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d lost or stale during serial reshard", i)
			}
			during++
		}
		if during == 0 {
			t.Error("reshard finished before any concurrent read")
		}
		for i := 0; i < n; i++ {
			v, ok := c.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d lost or stale after serial reshard", i)
			}
		}
	})
	env.Run()
	if mc.MigratedKeys == 0 {
		t.Error("serial reshard moved nothing")
	}
}
