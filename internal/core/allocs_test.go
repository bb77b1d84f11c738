//go:build !race

package core

import (
	"testing"

	"ditto/internal/sim"
)

// TestAllocsPerOpSteadyState enforces the zero-allocation hot-path
// contract: once the per-client plan pools, scratch buffers, and the
// sim's event heap are warm, a steady-state Get (via GetAppend with a
// reused destination) and an overwriting Set must allocate NOTHING.
// MGet keeps a small ceiling — its output (the vals/oks slices and
// one fresh copy per returned value) allocates by design — but the
// ceiling is tight enough that a single per-key regression (a closure
// capture, a rebuilt plan, an un-pooled buffer) trips it. MSet, which
// owns no outputs, is held to zero like the serial paths. The counts are meaningless under the race detector, so
// the -race build gets a skipping twin (allocs_race_test.go).
func TestAllocsPerOpSteadyState(t *testing.T) {
	env := sim.NewEnv(11)
	cl := NewCluster(env, DefaultOptions(1000, 1000*320))
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)

		const batch = 32
		keys := make([][]byte, batch)
		pairs := make([]KV, batch)
		for i := 0; i < batch; i++ {
			keys[i] = key(i)
			pairs[i] = KV{Key: key(i), Value: value(i)}
		}
		dst := make([]byte, 0, 512)

		// Warm every pool the measured loops touch: plan free lists,
		// runner scratch, endpoint batches, the sim event heap, and the
		// hash-table buckets for every key the loops revisit.
		for r := 0; r < 3; r++ {
			c.MSet(pairs)
			c.MGet(keys)
			c.Set(keys[0], pairs[0].Value)
			dst, _ = c.GetAppend(dst[:0], keys[0])
		}

		gets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], keys[0])
		})
		sets := testing.AllocsPerRun(200, func() {
			c.Set(keys[0], pairs[0].Value)
		})
		mgets := testing.AllocsPerRun(50, func() {
			c.MGet(keys)
		})
		msets := testing.AllocsPerRun(50, func() {
			c.MSet(pairs)
		})
		t.Logf("allocs/op: get=%.1f set=%.1f mget(%d)=%.1f mset(%d)=%.1f",
			gets, sets, batch, mgets, batch, msets)
		if gets != 0 {
			t.Errorf("steady-state Get allocates %.1f objects/op, want 0", gets)
		}
		if sets != 0 {
			t.Errorf("steady-state Set allocates %.1f objects/op, want 0", sets)
		}
		if mgets > batch+4 {
			t.Errorf("MGet(%d) allocates %.1f objects/op, ceiling %d", batch, mgets, batch+4)
		}
		if msets != 0 {
			t.Errorf("steady-state MSet(%d) allocates %.1f objects/op, want 0", batch, msets)
		}

		// Tenant mode on: header stamping, the per-tenant accounting
		// cell, and TryMSet's shed check must add nothing to the same
		// steady-state paths.
		cl.SetTenantQuota(1, 1<<40)
		c.BindTenant(1)
		var err error
		for r := 0; r < 3; r++ {
			c.Set(keys[0], pairs[0].Value)
			dst, _ = c.GetAppend(dst[:0], keys[0])
			if err = c.TryMSet(pairs); err != nil {
				t.Fatalf("TryMSet under open quota: %v", err)
			}
		}
		tgets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], keys[0])
		})
		tsets := testing.AllocsPerRun(200, func() {
			c.Set(keys[0], pairs[0].Value)
		})
		tmsets := testing.AllocsPerRun(50, func() {
			err = c.TryMSet(pairs)
		})
		t.Logf("tenant-mode allocs/op: get=%.1f set=%.1f trymset(%d)=%.1f",
			tgets, tsets, batch, tmsets)
		if tgets != 0 {
			t.Errorf("tenant-mode Get allocates %.1f objects/op, want 0", tgets)
		}
		if tsets != 0 {
			t.Errorf("tenant-mode Set allocates %.1f objects/op, want 0", tsets)
		}
		if tmsets != 0 {
			t.Errorf("tenant-mode TryMSet(%d) allocates %.1f objects/op, want 0", batch, tmsets)
		}
	})
	env.Run()

	multiClientAllocs(t, false)
	multiClientAllocs(t, true)
	contendedBatchAllocs(t)
	fullCacheSetAllocs(t)
}

// fullCacheSetAllocs holds the Set into a full adaptive cache — every
// cache-aside fill of a churning workload — to the clean Set's ceiling:
// the prefetched eviction's plan comes from the client's pool, its groups
// — and the allocator's supply probe, six of which fall in the measured
// loop — ride the store plan's verb scratch, the occupant a Set into full
// buckets displaces is picked from the plan's own candidate scratch, and
// the multi-verb groups post from the serial runner's frames.
func fullCacheSetAllocs(t *testing.T) {
	env := sim.NewEnv(16)
	cl := NewCluster(env, DefaultOptions(1000, 1000*320))
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)
		const warm, runs = 600, 200
		first := fillUntilDry(t, c)
		keys := make([][]byte, warm+runs+1)
		for i := range keys {
			keys[i] = key(first + i)
		}
		val, next := big(0), 0
		for ; next < warm; next++ { // past many probe intervals, and some displacements
			c.Set(keys[next], val)
		}
		before := c.Stats
		sets := testing.AllocsPerRun(runs, func() {
			c.Set(keys[next], val)
			next++
		})
		evicted := c.Stats.Evictions - before.Evictions
		t.Logf("allocs/op: set into a full cache=%.1f (%d evictions)", sets, evicted)
		if sets != 0 {
			t.Errorf("Set into a full adaptive cache allocates %.1f objects/op, want 0", sets)
		}
		if evicted < runs {
			t.Errorf("measured loop evicted %d times in %d Sets: the cache was not full", evicted, runs)
		}
	})
	env.Run()
}

// contendedBatchAllocs holds the batches' complication paths to the clean
// rows' ceilings: an MGet(32) whose every hint is stale (rejected hints
// continue into the walk inside the same pooled plans) and an MSet(32)
// contending with a second writer over the same keys (chases, given-up
// pairs re-run from the same pools and the client's index scratch).
func contendedBatchAllocs(t *testing.T) {
	const batch = 32
	keys := make([][]byte, batch)
	pairs := make([]KV, batch)
	for i := 0; i < batch; i++ {
		keys[i] = key(i)
		pairs[i] = KV{Key: key(i), Value: value(i)}
	}

	env := sim.NewEnv(14)
	opts := DefaultOptions(1000, 1000*320)
	opts.LocCacheSlots = 256
	cl := NewCluster(env, opts)
	env.Go("meter", func(p *sim.Proc) {
		c, other := cl.NewClient(p), cl.NewClient(p)
		// Every round the other client moves all 32 blocks, stranding the
		// hints c's previous MGet recorded; its steady-state MSet allocates
		// nothing, so the count is the stale-hint MGet's.
		round := func() {
			other.MSet(pairs)
			c.MGet(keys)
		}
		for r := 0; r < 3; r++ {
			round()
		}
		before := c.Stats.SpecGetFallbacks
		mgets := testing.AllocsPerRun(50, round)
		t.Logf("allocs/op: stale-hint mget(%d)=%.1f", batch, mgets)
		if mgets > batch+4 {
			t.Errorf("stale-hint MGet(%d) allocates %.1f objects/op, ceiling %d", batch, mgets, batch+4)
		}
		if got := c.Stats.SpecGetFallbacks - before; got < 50*batch {
			t.Errorf("measured loop rejected %d hints, want every one of %d", got, 50*batch)
		}
	})
	env.Run()

	env = sim.NewEnv(15)
	cl = NewCluster(env, DefaultOptions(1000, 1000*320))
	stop := false
	env.Go("rival", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for !stop {
			c.MSet(pairs)
		}
	})
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for r := 0; r < 40; r++ { // until every pooled plan has chased once
			c.MSet(pairs)
		}
		before := c.Stats.SetRetries
		msets := testing.AllocsPerRun(50, func() { c.MSet(pairs) })
		stop = true
		t.Logf("allocs/op: contended mset(%d)=%.1f, %d retries", batch, msets, c.Stats.SetRetries-before)
		if msets != 0 {
			t.Errorf("contended MSet(%d) allocates %.1f objects/op, want 0", batch, msets)
		}
		if c.Stats.SetRetries == before {
			t.Error("measured loop never lost a CAS")
		}
	})
	env.Run()
}

// multiClientAllocs holds the routed MultiClient paths (2 nodes, warm) to
// the single-Cluster client's ceilings: a single-key operation is a batch
// of one through the routed pipeline, a batch one fan-out of the same
// driver the Cluster client runs (batch.go) — grouping, the owners'
// groups, the pass's plans and the superseded-pair table all live in
// client-owned scratch, so routing adds nothing on the host clock. Get
// returns a fresh copy (one allocation by design), MGet allocates its
// outputs; with replication on, each unreplicated write additionally
// registers its key (a map-key string, in and out: two per pair).
func multiClientAllocs(t *testing.T, replicate bool) {
	env := sim.NewEnv(13)
	mc := NewMultiCluster(env, 2, DefaultOptions(2000, 2000*320))
	if replicate {
		// A threshold no key reaches: the write paths run registered but
		// unreplicated, which is what every non-hot key pays.
		mc.EnableHotKeyReplication(1, 1<<40, 0)
	}
	env.Go("meter", func(p *sim.Proc) {
		c := mc.NewClient(p)
		const batch = 32
		keys := make([][]byte, batch)
		pairs := make([]KV, batch)
		for i := 0; i < batch; i++ {
			keys[i] = key(i)
			pairs[i] = KV{Key: key(i), Value: value(i)}
		}
		for r := 0; r < 3; r++ {
			c.MSet(pairs)
			c.MGet(keys)
			c.Set(keys[0], pairs[0].Value)
			c.Get(keys[0])
		}
		gets := testing.AllocsPerRun(200, func() { c.Get(keys[0]) })
		sets := testing.AllocsPerRun(200, func() { c.Set(keys[0], pairs[0].Value) })
		mgets := testing.AllocsPerRun(50, func() { c.MGet(keys) })
		msets := testing.AllocsPerRun(50, func() { c.MSet(pairs) })
		t.Logf("MultiClient (replication=%v) allocs/op: get=%.1f set=%.1f mget(%d)=%.1f mset(%d)=%.1f",
			replicate, gets, sets, batch, mgets, batch, msets)
		maxSet, maxMSet := 0.0, 0.0
		if replicate {
			maxSet, maxMSet = 2, 2*batch
		}
		if gets > 1 {
			t.Errorf("MultiClient Get allocates %.1f objects/op, ceiling 1", gets)
		}
		if sets > maxSet {
			t.Errorf("MultiClient Set allocates %.1f objects/op, ceiling %.0f", sets, maxSet)
		}
		if mgets > batch+4 {
			t.Errorf("MultiClient MGet(%d) allocates %.1f objects/op, ceiling %d", batch, mgets, batch+4)
		}
		if msets > maxMSet {
			t.Errorf("MultiClient MSet(%d) allocates %.1f objects/op, ceiling %.0f", batch, msets, maxMSet)
		}
	})
	env.Run()
}

// TestAllocsPerOpSteadyStateSpecGet holds the one-RTT speculative path
// to the same contract: once the hint is recorded and the spec-plan pool
// is warm, a hinted Get via GetAppend — Lookup, the speculative READ,
// in-place validation, metadata maintenance, and the hint refresh — must
// allocate NOTHING. The -race build gets a skipping twin
// (allocs_race_test.go).
func TestAllocsPerOpSteadyStateSpecGet(t *testing.T) {
	env := sim.NewEnv(12)
	opts := DefaultOptions(1000, 1000*320)
	opts.LocCacheSlots = 256
	cl := NewCluster(env, opts)
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)
		k := key(0)
		c.Set(k, value(0))
		dst := make([]byte, 0, 512)
		for r := 0; r < 3; r++ { // warm the spec-plan pool and the hint
			dst, _ = c.GetAppend(dst[:0], k)
		}
		before := c.Stats.SpecGetHits
		gets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], k)
		})
		t.Logf("allocs/op: hinted get=%.1f", gets)
		if gets != 0 {
			t.Errorf("steady-state hinted Get allocates %.1f objects/op, want 0", gets)
		}
		// Prove the meter measured the speculative path, not a silent
		// fallback to the two-RTT walk.
		if c.Stats.SpecGetHits <= before {
			t.Error("measured loop never took the speculative path")
		}
		if c.Stats.SpecGetFallbacks != 0 {
			t.Errorf("fallbacks = %d, want 0", c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}
