package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ditto/internal/sim"
)

// newTestCluster builds a small cluster; experts defaults to LRU+LFU.
func newTestCluster(env *sim.Env, objects int, experts ...string) *Cluster {
	opts := DefaultOptions(objects, objects*320)
	if len(experts) > 0 {
		opts.Experts = experts
	}
	return NewCluster(env, opts)
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func value(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }

func TestSetGetRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 100; i++ {
			c.Set(key(i), value(i))
		}
		for i := 0; i < 100; i++ {
			v, ok := c.Get(key(i))
			if !ok {
				t.Fatalf("key %d missing", i)
			}
			if !bytes.Equal(v, value(i)) {
				t.Fatalf("key %d: wrong value", i)
			}
		}
		if c.Stats.Hits != 100 || c.Stats.Misses != 0 {
			t.Fatalf("stats = %+v", c.Stats)
		}
	})
	env.Run()
}

func TestGetMiss(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		if _, ok := c.Get([]byte("absent")); ok {
			t.Fatal("hit on empty cache")
		}
		if c.Stats.Misses != 1 {
			t.Fatalf("misses = %d", c.Stats.Misses)
		}
	})
	env.Run()
}

func TestSetOverwrites(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("k"), []byte("v1"))
		c.Set([]byte("k"), []byte("v2-longer-than-before"))
		v, ok := c.Get([]byte("k"))
		if !ok || string(v) != "v2-longer-than-before" {
			t.Fatalf("got %q ok=%v", v, ok)
		}
		// The old block must have been freed (no leak): live bytes is one
		// object.
		if cl.MN.UsedBytes > 128 {
			t.Fatalf("allocated %d bytes for one small object", cl.MN.UsedBytes)
		}
	})
	env.Run()
}

func TestDelete(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("k"), []byte("v"))
		if !c.Delete([]byte("k")) {
			t.Fatal("delete of present key returned false")
		}
		if _, ok := c.Get([]byte("k")); ok {
			t.Fatal("deleted key still readable")
		}
		if c.Delete([]byte("k")) {
			t.Fatal("second delete returned true")
		}
		if cl.MN.UsedBytes != 0 {
			t.Fatalf("leak: %d bytes after delete", cl.MN.UsedBytes)
		}
	})
	env.Run()
}

func TestGetVerbBudget(t *testing.T) {
	// §4.1: a Get is two RDMA_READs (bucket + object); metadata updates
	// ride asynchronously (1 WRITE, FAA amortized by the FC cache).
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("k"), []byte("v"))
		s0 := cl.MN.Node.Stats
		c.Get([]byte("k"))
		d := cl.MN.Node.Stats
		if reads := d.Reads - s0.Reads; reads != 2 {
			t.Errorf("Get used %d READs, want 2", reads)
		}
		if cas := d.CASes - s0.CASes; cas != 0 {
			t.Errorf("Get used %d CASes, want 0", cas)
		}
		if rpcs := d.RPCs - s0.RPCs; rpcs != 0 {
			t.Errorf("Get used %d RPCs, want 0", rpcs)
		}
		if w := d.Writes - s0.Writes; w != 1 {
			t.Errorf("Get used %d WRITEs, want 1 (async last_ts)", w)
		}
	})
	env.Run()
}

func TestSetVerbBudget(t *testing.T) {
	// §4.1: an insert is READ (search) + WRITE (object) + CAS (publish);
	// the metadata init WRITE is asynchronous. Segment allocation RPC is
	// amortized.
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("warm"), []byte("up")) // pulls the first segment
		s0 := cl.MN.Node.Stats
		c.Set([]byte("k"), []byte("v"))
		d := cl.MN.Node.Stats
		if reads := d.Reads - s0.Reads; reads != 1 {
			t.Errorf("insert used %d READs, want 1", reads)
		}
		if w := d.Writes - s0.Writes; w != 2 {
			t.Errorf("insert used %d WRITEs, want 2 (object + async meta)", w)
		}
		if cas := d.CASes - s0.CASes; cas != 1 {
			t.Errorf("insert used %d CASes, want 1", cas)
		}
		if rpcs := d.RPCs - s0.RPCs; rpcs != 0 {
			t.Errorf("insert used %d RPCs, want 0", rpcs)
		}
	})
	env.Run()
}

func TestEvictionKeepsCapacity(t *testing.T) {
	env := sim.NewEnv(1)
	const objects = 200
	cl := newTestCluster(env, objects)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < objects*4; i++ {
			c.Set(key(i), value(i))
		}
		if c.Stats.Evictions == 0 {
			t.Fatal("no evictions despite 4x capacity inserts")
		}
		if cl.MN.UsedBytes > cl.Options().CacheBytes {
			t.Fatalf("allocated %d > capacity %d", cl.MN.UsedBytes, cl.Options().CacheBytes)
		}
		// Recent keys must be mostly resident (LRU/LFU both keep them).
		hits := 0
		for i := objects*4 - 50; i < objects*4; i++ {
			if _, ok := c.Get(key(i)); ok {
				hits++
			}
		}
		if hits < 25 {
			t.Fatalf("only %d/50 recent keys resident after evictions", hits)
		}
	})
	env.Run()
}

func TestSingleExpertSkipsHistory(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100, "LRU")
	if cl.Adaptive() {
		t.Fatal("single expert must disable adaptive caching")
	}
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 400; i++ {
			c.Set(key(i), value(i))
		}
		if c.Stats.Evictions == 0 {
			t.Fatal("no evictions")
		}
		if c.hist.Inserts != 0 {
			t.Fatal("single-expert mode created history entries")
		}
		if c.Weights() != nil {
			t.Fatal("weights exposed without adaptive caching")
		}
	})
	env.Run()
	// The global history counter must never have been touched.
	if v := cl.MN.Node.Uint64At(0); v != 0 {
		t.Fatalf("history counter = %d", v)
	}
}

func TestAdaptiveCreatesHistoryAndRegrets(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 300; i++ {
			c.Set(key(i), value(i))
		}
		if c.hist.Inserts == 0 {
			t.Fatal("no history entries despite evictions")
		}
		// Re-request evicted keys: some must hit the history (regrets).
		for i := 0; i < 300; i++ {
			c.Get(key(i))
		}
		if c.Stats.Regrets == 0 {
			t.Fatal("no regrets collected re-reading evicted keys")
		}
		w := c.Weights()
		if len(w) != 2 {
			t.Fatalf("weights = %v", w)
		}
	})
	env.Run()
}

func TestRegretNotDoubleCounted(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 600; i++ {
			c.Set(key(i), value(i))
		}
		// Find an evicted key.
		evicted := -1
		for i := 0; i < 600; i++ {
			if _, ok := c.Get(key(i)); !ok {
				evicted = i
				break
			}
		}
		if evicted < 0 {
			t.Error("nothing evicted despite 6x capacity inserts")
			return
		}
		before := c.Stats.Regrets
		c.Get(key(evicted)) // may or may not be a fresh regret (first Get consumed it)
		c.Get(key(evicted))
		after := c.Stats.Regrets
		if after-before > 1 {
			t.Fatalf("same miss penalized %d times", after-before)
		}
	})
	env.Run()
}

func TestMultiClientSharing(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 1000)
	const writers = 4
	done := 0
	for w := 0; w < writers; w++ {
		w := w
		env.Go("writer", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for i := w * 50; i < (w+1)*50; i++ {
				c.Set(key(i), value(i))
				p.Sleep(sim.Microsecond)
			}
			done++
		})
	}
	env.Run()
	if done != writers {
		t.Fatal("writers did not finish")
	}
	env.Go("reader", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < writers*50; i++ {
			v, ok := c.Get(key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("cross-client read of key %d failed", i)
				return
			}
		}
	})
	env.Run()
}

func TestConcurrentSameKeySetsConverge(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	for i := 0; i < 8; i++ {
		i := i
		env.Go("w", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for r := 0; r < 10; r++ {
				c.Set([]byte("contended"), []byte(fmt.Sprintf("v-%d-%d", i, r)))
			}
		})
	}
	env.Run()
	env.Go("r", func(p *sim.Proc) {
		c := cl.NewClient(p)
		v, ok := c.Get([]byte("contended"))
		if !ok {
			t.Error("contended key lost")
			return
		}
		if len(v) < 4 || string(v[:2]) != "v-" {
			t.Errorf("corrupted value %q", v)
		}
	})
	env.Run()
}

func TestExtensionAlgorithmsEndToEnd(t *testing.T) {
	// LRUK + LRFU both carry extension metadata through the object heap.
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 200, "LRUK", "LRFU")
	if cl.totalExt != 16+16 {
		t.Fatalf("totalExt = %d", cl.totalExt)
	}
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < 2000; i++ {
			c.Set(key(i%1200), value(i%1200))
			c.Get(key(i % 97))
			p.Sleep(sim.Microsecond)
		}
		if c.Stats.Evictions == 0 {
			t.Fatal("no evictions")
		}
		// Sampled eviction takes a hot key now and then (the parent commit
		// ends this loop with 15 of the 97 absent), so no single key is
		// pinned: none may be corrupted, and most must have survived 2000
		// evicting Sets on their one Get in 97.
		lost := 0
		for k := 0; k < 97; k++ {
			if v, ok := c.Get(key(k)); !ok {
				lost++
			} else if !bytes.Equal(v, value(k)) {
				t.Fatalf("hot key %d corrupted with extension metadata", k)
			}
		}
		if lost > 97/3 {
			t.Fatalf("%d of 97 hot keys lost with extension metadata", lost)
		}
	})
	env.Run()
}

func TestCloseFlushes(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.Set([]byte("k"), []byte("v"))
		for i := 0; i < 5; i++ {
			c.Get([]byte("k"))
		}
		if c.fc.Len() == 0 {
			t.Fatal("expected buffered freq deltas")
		}
		c.Close()
		if c.fc.Len() != 0 {
			t.Fatal("Close did not flush the FC cache")
		}
	})
	env.Run()
}

func TestGrowCacheReducesEvictions(t *testing.T) {
	run := func(grow bool) int64 {
		env := sim.NewEnv(1)
		cl := newTestCluster(env, 100)
		var ev int64
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			for i := 0; i < 200; i++ {
				c.Set(key(i), value(i))
			}
			if grow {
				cl.GrowCache(cl.Options().CacheBytes * 2)
			}
			for i := 200; i < 400; i++ {
				c.Set(key(i), value(i))
			}
			ev = c.Stats.Evictions
		})
		env.Run()
		return ev
	}
	small, grown := run(false), run(true)
	if grown >= small {
		t.Fatalf("growing the cache did not reduce evictions: %d vs %d", grown, small)
	}
}

func TestOnOpObserver(t *testing.T) {
	env := sim.NewEnv(1)
	cl := newTestCluster(env, 100)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		var gets, sets int
		c.OnOp = func(op OpKind, lat int64, hit bool) {
			if lat <= 0 {
				t.Errorf("non-positive latency %d", lat)
			}
			switch op {
			case OpGet:
				gets++
			case OpSet:
				sets++
			}
		}
		c.Set([]byte("k"), []byte("v"))
		c.Get([]byte("k"))
		c.Get([]byte("missing"))
		if gets != 2 || sets != 1 {
			t.Fatalf("observer saw gets=%d sets=%d", gets, sets)
		}
	})
	env.Run()
}

func TestOptionValidation(t *testing.T) {
	env := sim.NewEnv(1)
	for name, opts := range map[string]Options{
		"no objects": {CacheBytes: 1 << 20},
		"no bytes":   {ExpectedObjects: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewCluster(env, opts)
		}()
	}
}

func TestUnknownExpertPanics(t *testing.T) {
	env := sim.NewEnv(1)
	opts := DefaultOptions(100, 1<<20)
	opts.Experts = []string{"NOPE"}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown expert")
		}
	}()
	NewCluster(env, opts)
}

// TestStatsAddCoversEveryCounter guards the hand-maintained field list
// of Stats.Add: a counter missing from it would silently vanish from
// MultiClient.Stats() and the bench aggregators.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is not an int64 counter: teach this test (and Add) about it", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	s.Add(s)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Stats.Add drops %s: %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}
