package core

// Eviction as verb plans: Serial/Doorbell equivalence of eviction
// batches, the occupancy-sized sample window (regression for the
// ExpectedObjects-based sizing that scanned blind windows on sparse
// tables), and the proactive background reclaimer.

import (
	"bytes"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// TestEvictStrategiesEquivalent pins the tentpole equivalence: with the
// same starting state and seed, a batch of eviction plans reclaims
// exactly the same victims — same surviving keys, same stats, same
// expert weights — whether it runs under exec.Serial or exec.Doorbell.
// The plans pre-draw their randomness AND their priority-evaluation
// time at construction, so the strategies consume the same random
// sequence and time-dependent experts (Hyperbolic, and LRFU's
// extension metadata, which also exercises the plan's ext-READ stage)
// rank identically; the test additionally asserts that no attempt had
// to resample (EvictResamples == 0), which certifies the chosen seed
// exercises the collision-free regime where the equivalence is exact
// rather than statistical.
func TestEvictStrategiesEquivalent(t *testing.T) {
	for _, experts := range [][]string{
		{"LRU", "LFU"},
		{"LRU", "LRFU", "HYPERBOLIC"},
	} {
		t.Run(experts[len(experts)-1], func(t *testing.T) {
			testEvictStrategiesEquivalent(t, experts)
		})
	}
}

func testEvictStrategiesEquivalent(t *testing.T, experts []string) {
	const keys, evictions = 3000, 32
	run := func(strat exec.Strategy) (map[string]bool, Stats, []float64) {
		env := sim.NewEnv(17)
		cl := newTestCluster(env, 4000, experts...)
		survivors := make(map[string]bool)
		var st Stats
		var weights []float64
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for i := 0; i < keys; i++ {
				c.Set(key(i), value(i))
			}
			got := 0
			for got < evictions {
				got += c.evictBatch(8, strat)
			}
			st = c.Stats
			weights = append([]float64(nil), c.Weights()...)
			for i := 0; i < keys; i++ {
				if c.walk(key(i), false).hit { // stat-silent probe
					survivors[string(key(i))] = true
				}
			}
		})
		env.Run()
		return survivors, st, weights
	}

	serialSurv, serialStats, serialW := run(exec.Serial)
	doorSurv, doorStats, doorW := run(exec.Doorbell)

	if serialStats.EvictResamples != 0 || doorStats.EvictResamples != 0 {
		t.Fatalf("seed hit victim collisions (resamples serial=%d doorbell=%d); equivalence not exact",
			serialStats.EvictResamples, doorStats.EvictResamples)
	}
	if serialStats.Evictions != evictions || doorStats.Evictions != evictions {
		t.Fatalf("evictions: serial=%d doorbell=%d, want %d",
			serialStats.Evictions, doorStats.Evictions, evictions)
	}
	if len(serialSurv) != len(doorSurv) {
		t.Fatalf("survivors differ: serial=%d doorbell=%d", len(serialSurv), len(doorSurv))
	}
	for k := range serialSurv {
		if !doorSurv[k] {
			t.Fatalf("key %s survived serial but not doorbell eviction", k)
		}
	}
	if serialStats.SampledSlots != doorStats.SampledSlots {
		t.Errorf("sampled slots differ: serial=%d doorbell=%d",
			serialStats.SampledSlots, doorStats.SampledSlots)
	}
	if len(serialW) != len(doorW) {
		t.Fatalf("weight vectors differ in length")
	}
	for i := range serialW {
		if serialW[i] != doorW[i] {
			t.Errorf("expert %d weight differs: serial=%v doorbell=%v", i, serialW[i], doorW[i])
		}
	}
}

// TestEvictionDoorbellBatchFaster pins the perf half: reclaiming many
// victims as doorbell-batched plans costs less virtual time than the
// same reclaim one verb per round trip.
func TestEvictionDoorbellBatchFaster(t *testing.T) {
	run := func(strat exec.Strategy) int64 {
		env := sim.NewEnv(23)
		cl := newTestCluster(env, 4000)
		var elapsed int64
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for i := 0; i < 800; i++ {
				c.Set(key(i), value(i))
			}
			start := p.Now()
			for got := 0; got < 64; {
				got += c.evictBatch(16, strat)
			}
			elapsed = p.Now() - start
		})
		env.Run()
		return elapsed
	}
	serialNs, doorNs := run(exec.Serial), run(exec.Doorbell)
	if doorNs >= serialNs {
		t.Fatalf("doorbell eviction not faster: %dns vs serial %dns", doorNs, serialNs)
	}
	t.Logf("64 evictions: serial=%dns doorbell=%dns (%.2fx)",
		serialNs, doorNs, float64(serialNs)/float64(doorNs))
}

// TestEvictWindowEmptyTable is the regression for the sample-window
// sizing: on an empty table the window must cover the whole table ONCE
// and conclude definitively that nothing is evictable, instead of
// burning the full resample budget on windows sized for the design load.
func TestEvictWindowEmptyTable(t *testing.T) {
	env := sim.NewEnv(3)
	cl := newTestCluster(env, 4000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		if c.evictOne() {
			t.Fatal("evicted from an empty cache")
		}
		n := int64(cl.Layout.NumSlots())
		if c.Stats.SampledSlots != n {
			t.Errorf("sampled %d slots on an empty table, want one full scan (%d)",
				c.Stats.SampledSlots, n)
		}
		if c.Stats.EvictResamples != 0 {
			t.Errorf("resampled %d times on an empty table, want 0", c.Stats.EvictResamples)
		}
	})
	env.Run()
}

// TestEvictWindowSparseTable checks the other half of the sizing fix:
// with live occupancy far below ExpectedObjects, the window grows to
// match so an eviction still lands within a few attempts. (The design-
// load sizing sampled ~k*(n/ExpectedObjects+1) slots — a few dozen out
// of ten thousand — and needed tens of resamples to find anything.)
func TestEvictWindowSparseTable(t *testing.T) {
	env := sim.NewEnv(3)
	cl := newTestCluster(env, 4000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		const sparse = 12
		for i := 0; i < sparse; i++ {
			c.Set(key(i), value(i))
		}
		if !c.evictOne() {
			t.Fatal("could not evict from a sparse table")
		}
		if c.Stats.EvictResamples > 8 {
			t.Errorf("sparse-table eviction needed %d resamples, want <= 8",
				c.Stats.EvictResamples)
		}
		// The key count must have dropped by exactly the one victim.
		live := 0
		for i := 0; i < sparse; i++ {
			if c.walk(key(i), false).hit {
				live++
			}
		}
		if live != sparse-1 {
			t.Errorf("live keys after one eviction: %d, want %d", live, sparse-1)
		}
	})
	env.Run()
}

// TestBackgroundReclaimerKeepsWritesUnstalled drives write-heavy churn
// at ~100% occupancy with the background reclaimer enabled and checks
// that (a) the reclaimer does the eviction work, (b) the client write
// path stays off the heap-pressure eviction chain (its only evictions
// are the unrelated bucket-pressure corner case), (c) the cache stays
// exact — recently written keys read back with their exact values — and
// (d) the node ends under its watermark regime. Objects are sized like
// the benches' (320-byte class) so the HEAP binds before the table does.
func TestBackgroundReclaimerKeepsWritesUnstalled(t *testing.T) {
	bigValue := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 240) }
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		t.Run(strat.String(), func(t *testing.T) {
			env := sim.NewEnv(7)
			cl := NewCluster(env, DefaultOptions(2000, 2000*320))
			cl.Strategy = strat
			cl.EnableBackgroundReclaim(0, 0)
			env.Go("c", func(p *sim.Proc) {
				c := cl.NewClient(p)
				const span = 5000 // ~2.5x capacity: steady-state churn
				for i := 0; i < span; i++ {
					c.Set(key(i), bigValue(i))
				}
				// Whatever survived must be exact (a fresh key is a fair
				// LFU victim, so presence is not guaranteed — staleness
				// or corruption is what eviction must never cause).
				hits := 0
				for i := 0; i < span; i++ {
					if v, ok := c.Get(key(i)); ok {
						hits++
						if !bytes.Equal(v, bigValue(i)) {
							t.Fatalf("key %d stale under churn", i)
						}
					}
				}
				if hits < span/4 {
					t.Fatalf("only %d/%d keys survived churn in a cache sized for ~%d", hits, span, 2000)
				}
				if heapEvicts := c.Stats.Evictions - c.Stats.BucketEvictions; heapEvicts > 0 {
					t.Errorf("client evicted %d victims inline for heap pressure; reclaimer should carry the load",
						heapEvicts)
				}
				t.Logf("client: %d bucket evictions, %d stall ticks (%dns stalled)",
					c.Stats.BucketEvictions, c.Stats.WriteStallTicks, c.Stats.WriteStallNs)
			})
			env.Run()
			rs := cl.ReclaimerStats()
			if rs.Evictions == 0 {
				t.Fatal("background reclaimer evicted nothing")
			}
			if rs.ReclaimerWakeups == 0 {
				t.Error("reclaimer wakeups not counted")
			}
			if cl.MN.OverBudget() {
				t.Error("node still over budget after the run")
			}
			t.Logf("reclaimer: %d evictions, %d wakeups, %d sampled slots",
				rs.Evictions, rs.ReclaimerWakeups, rs.SampledSlots)
		})
	}
}

// TestReclaimerDrainsShrink checks that ShrinkCache pressure is drained
// by the reclaimer alone: the shrink kicks it, and the heap is back
// under budget without any client write absorbing eviction work.
func TestReclaimerDrainsShrink(t *testing.T) {
	env := sim.NewEnv(5)
	cl := newTestCluster(env, 2000)
	cl.EnableBackgroundReclaim(0, 0)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 1500; i++ {
			c.Set(key(i), value(i))
		}
		// Shrink the heap to half the LIVE bytes: the node is now deeply
		// over budget, and no further writes run — the reclaimer must
		// drain the deficit alone off the shrink's kick.
		cl.ShrinkCache(cl.MN.HeapBytes() - cl.MN.UsedBytes/2)
	})
	env.Run()
	if cl.MN.OverBudget() {
		t.Fatalf("still over budget after shrink: free=%d", cl.MN.FreeBytes())
	}
	if cl.ReclaimerStats().Evictions == 0 {
		t.Fatal("reclaimer evicted nothing after shrink")
	}
}
