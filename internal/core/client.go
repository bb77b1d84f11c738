package core

import (
	"fmt"

	"ditto/internal/adaptive"
	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/fccache"
	"ditto/internal/hashtable"
	"ditto/internal/history"
	"ditto/internal/loccache"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// getRetries bounds re-reads when a stale pointer is observed under
// concurrent updates.
const getRetries = 3

// evictAttempts bounds resampling before giving up on one eviction round
// (generous: under heavy multi-client thrash, CAS losses burn attempts).
const evictAttempts = 512

// Stats are per-client operation counters.
type Stats struct {
	Gets, Sets, Deletes int64
	Hits, Misses        int64
	Evictions           int64
	Regrets             int64
	SetRetries          int64
	BucketEvictions     int64

	// Eviction observability. SampledSlots counts slots fetched by
	// eviction sample READs (SampledSlots/Evictions is the sampled-slots-
	// per-eviction figure); EvictResamples counts eviction attempts that
	// found no live candidate or lost the victim CAS and had to resample.
	SampledSlots   int64
	EvictResamples int64

	// WriteStallTicks counts the bounded stall rounds a write's
	// allocOrEvict slept waiting for the background reclaimer (zero when
	// none is enabled). WriteStallNs is the total virtual time writes
	// spent in rounds that exist only because they had to make room —
	// reclaimer stall ticks, inline eviction verbs, and the rounds a
	// prefetched eviction ran after the write's own walk was done (its
	// victim CAS, typically) — the eviction-stall time of the churn bench.
	WriteStallTicks int64
	WriteStallNs    int64

	// ReclaimerWakeups counts pressure wakeups; only the background
	// reclaimer's own client (Cluster.ReclaimerStats) increments it.
	ReclaimerWakeups int64

	// ShedOps counts operations overload control rejected up front
	// (TryMSet on an over-quota tenant while the node was overloaded);
	// no verbs were issued for them.
	ShedOps int64

	// Speculative-Get observability (Options.LocCacheSlots > 0).
	// SpecGetHits counts Gets served by ONE speculative READ of a
	// location-cache hint that validated in place; SpecGetFallbacks counts
	// hinted Gets whose speculative image failed validation (block reused,
	// freed, lease lapsed, …) and fell back to the ordinary bucket walk —
	// those Gets paid one extra READ. Unhinted Gets touch neither counter.
	SpecGetHits      int64
	SpecGetFallbacks int64
}

// Add folds other's counters into s — the one summation every
// aggregator (MultiClient.Stats, the bench harnesses) shares, so a new
// counter cannot be silently dropped from one of them.
func (s *Stats) Add(other Stats) {
	s.Gets += other.Gets
	s.Sets += other.Sets
	s.Deletes += other.Deletes
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Regrets += other.Regrets
	s.SetRetries += other.SetRetries
	s.BucketEvictions += other.BucketEvictions
	s.SampledSlots += other.SampledSlots
	s.EvictResamples += other.EvictResamples
	s.WriteStallTicks += other.WriteStallTicks
	s.WriteStallNs += other.WriteStallNs
	s.ReclaimerWakeups += other.ReclaimerWakeups
	s.ShedOps += other.ShedOps
	s.SpecGetHits += other.SpecGetHits
	s.SpecGetFallbacks += other.SpecGetFallbacks
}

// SpecGetHitRate returns SpecGetHits/Gets — the fraction of Gets served
// in one RTT by a validated speculative read. Denominator is all Gets
// (not just hinted ones): the rate answers "how much of the read traffic
// went one-RTT", the number the benches report.
func (s *Stats) SpecGetHitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.SpecGetHits) / float64(s.Gets)
}

// HitRate returns Hits/(Hits+Misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Client is one Ditto client: the library instance an application links
// against on a compute node. It must run inside its own sim process.
type Client struct {
	cl    *Cluster
	p     *sim.Proc
	ep    *rdma.Endpoint
	ht    *hashtable.Handle
	alloc *memnode.Alloc
	hist  *history.Client
	adapt *adaptive.Client
	fc    *fccache.Cache

	experts []cachealgo.Algorithm
	extOff  []int // offset of each expert's extension segment

	// runner owns the pooled executor scratch; served is this client's
	// shard of the cluster's ServedReads counter. meta8 backs the
	// DisableSFHT ablation's per-hit metadata WRITE (safe to reuse:
	// WriteAsync applies before returning). extMeta is the scratch
	// Metadata handed to expert Init/UpdateExt/Priority calls — passing a
	// local through the interface forces a heap allocation per call, and
	// the contract says experts must not retain the pointer.
	runner  exec.Runner
	served  *stats.CounterCell
	meta8   [8]byte
	extMeta cachealgo.Metadata

	// Plan pools and in-flight batch scratch (see pool.go). getPlans,
	// setPlans and delPlans are this client's share of the batched pass in
	// flight (batch.go; fan drives it — the client's own, or the
	// MultiClient's it is a group of); runEv carries the eviction batches —
	// separate because inline eviction can fire while a pass's doorbell
	// round is mid-absorb.
	gets     planPool[getPlan]
	sets     planPool[setPlan]
	dels     planPool[delPlan]
	evs      planPool[evictPlan]
	getPlans []*getPlan
	setPlans []*setPlan
	delPlans []*delPlan
	evPlans  []*evictPlan
	runEv    []exec.Plan
	fan      fan
	idxAll   []int   // the identity index list [0, n) (solo)
	retryIdx []int   // the keys/pairs the batch's next pass re-runs
	dupTab   []int32 // supersede's table over a pass's key hashes

	// Location cache behind one-RTT speculative Gets (nil unless
	// Options.LocCacheSlots > 0; see internal/loccache). verBase/verSeq
	// generate this client's object incarnation stamps: verBase is the
	// cluster-assigned 16-bit client id pre-shifted into stamp position,
	// verSeq the per-staging sequence — deterministic counters, no RNG
	// draw, so enabling stamps never perturbs randomness order. stamp8 is
	// the reusable all-zero image releaseBlock writes over a freed
	// block's tenant+ver bytes (safe to share: WriteAsync applies before
	// returning, and the stamp is always zero).
	loc     *loccache.Cache
	verBase uint64
	verSeq  uint32
	stamp8  [8]byte

	// Stats accumulates this client's counters.
	Stats Stats

	// OnOp, when non-nil, observes every completed Get/Set with its
	// virtual-time latency; benchmark harnesses install collectors here.
	OnOp func(op OpKind, latency int64, hit bool)

	// onHit, when non-nil, observes every hit with the key's owning
	// tenant and logical frequency (noteHit's convention: remote snapshot
	// + pending FC-cache delta + this hit). MultiClient installs it as
	// the hot-key promotion signal; the hook must not issue verbs (it
	// runs inside the hit path).
	onHit func(key []byte, tenant TenantID, freq uint64)

	// Tenancy (see tenancy.go): the bound tenant stamped into objects
	// this client stores, the client's shard of the cluster's per-tenant
	// usage counter, and the pending lease expiry SetTTL arms for the
	// next Set (0 = no lease).
	tenant     TenantID
	tcell      *stats.TenantCell
	nextExpiry int64
}

// OpKind labels operations for OnOp.
type OpKind int

// Operation kinds reported to OnOp.
const (
	OpGet OpKind = iota
	OpSet
)

// NewClient creates a Ditto client for process p. Each application thread
// gets its own client, matching the paper's one-client-per-core model.
func (cl *Cluster) NewClient(p *sim.Proc) *Client {
	ep := rdma.NewEndpoint(cl.MN.Node, p)
	c := &Client{
		cl:     cl,
		p:      p,
		ep:     ep,
		ht:     hashtable.NewHandle(cl.Layout, ep),
		alloc:  memnode.NewAlloc(cl.MN, ep),
		hist:   history.NewClient(ep, hashtable.NewHandle(cl.Layout, ep), cl.histSize),
		served: cl.servedReads.NewCell(),
		tcell:  cl.tenantUsage.NewCell(),
	}
	cl.verClients++
	c.verBase = uint64(cl.verClients) << 32
	if cl.specMode() {
		c.loc = loccache.New(cl.opts.LocCacheSlots)
	}
	off := 0
	for _, name := range cl.opts.Experts {
		a, err := cachealgo.New(name)
		if err != nil {
			//dittolint:allow typederr (config validation: unknown expert name, caught at client construction)
			panic(fmt.Sprintf("core: %v", err))
		}
		c.experts = append(c.experts, a)
		c.extOff = append(c.extOff, off)
		off += a.ExtSize()
	}
	if cl.Adaptive() {
		c.adapt = adaptive.NewClient(adaptive.Config{
			NumExperts:   len(c.experts),
			LearningRate: cl.opts.LearningRate,
			HistorySize:  cl.histSize,
			BatchSize:    cl.opts.BatchSize,
			Eager:        cl.opts.EagerWeightSync,
		}, ep)
	}
	c.fc = fccache.New(cl.opts.FCCacheBytes, cl.opts.FCThreshold, c.ht.FAAFreqAsync)
	c.fan = fan{p: p, db: &c.runner.Doorbell}
	return c
}

// Weights exposes the client's local expert weights (nil when adaptive
// caching is off).
func (c *Client) Weights() adaptive.Weights {
	if c.adapt == nil {
		return nil
	}
	return c.adapt.Weights()
}

// Proc returns the owning sim process.
func (c *Client) Proc() *sim.Proc { return c.p }

// Close flushes client-side buffered state (FC cache deltas, pending
// weight penalties).
func (c *Client) Close() {
	c.fc.FlushAll()
	if c.adapt != nil {
		c.adapt.Sync()
	}
}

// ----------------------------------------------------------------- Get ----

// Get fetches the value cached under key, returning ok=false on a miss.
// Critical path: one READ of the key's bucket plus one READ of the object
// (a second bucket READ only on overflow), with metadata maintenance off
// the critical path (§4.1). The verb sequence is the getPlan in plan.go —
// the same plan MGet runs as doorbell batches — traversed serially here.
// The returned value is a fresh copy; use GetAppend to reuse a buffer.
func (c *Client) Get(key []byte) ([]byte, bool) { return c.get(key, false, nil) }

// GetAppend is Get appending the value to dst and returning the extended
// slice — the allocation-free form for callers that reuse a buffer
// across operations.
func (c *Client) GetAppend(dst, key []byte) ([]byte, bool) { return c.get(key, false, dst) }

// get runs the plan and, on a hit, appends the value to dst. The copy
// happens before the plan is put back: pl.dec.value is a view into the
// plan's pooled object buffer.
//
// probe=true makes a miss silent: no counters, no regret collection, no
// observer report. MultiClient's forwarding window probes this way so a
// key sitting on its old owner does not record a phantom miss (and
// adaptive penalties) on the new owner for every forwarded hit. A probe
// that hits counts as a normal Get.
//
// With a location cache enabled, a hinted key first tries the one-RTT
// speculative path: the plan's speculative first stage (getPlan, plan.go)
// READs the hinted block and validates it in place. A validated hit is a
// normal hit — same counters, same metadata maintenance, same observer
// report — served in a single round trip. After any validation failure
// the plan silently continues into the ordinary bucket walk, whose own
// hit path re-records a fresh hint (and which drops the rejected one when
// it finds no copy); correctness never depends on the hint.
func (c *Client) get(key []byte, probe bool, dst []byte) ([]byte, bool) {
	start := c.p.Now()
	pl := c.walk(key, true)
	dst, hit := c.finishGet(start, pl, probe, dst)
	c.gets.put(pl)
	return dst, hit
}

// walk is THE serial read: key's plan run serially — a clean miss ends
// it, a stale snapshot re-reads, bounded by getRetries. It returns the
// finished plan, which the caller puts back (c.gets) once it has consumed
// the hit's views. With spec=false it is the quiet read, touching no
// counter, frequency or observer: maintenance reads (promotion's value
// snapshot, write repair) and the tests' stat-silent probes read
// pl.hit/pl.dec off it directly. get passes spec=true (the first attempt
// tries the client's hint, and counts its rejection) and completes the
// plan as a counted operation.
func (c *Client) walk(key []byte, spec bool) *getPlan {
	pl := c.gets.get()
	for attempt := 0; attempt < getRetries; attempt++ {
		c.runner.Serial.Run(pl.reset(c, key, spec && attempt == 0))
		if pl.hit || !pl.stale {
			break
		}
	}
	return pl
}

// finishGet completes a finished plan as a counted Get — the hit by
// whichever way the plan found the object (dst returned extended by the
// value), the miss unless probe silences it. The caller still owns the
// plan.
func (c *Client) finishGet(start int64, pl *getPlan, probe bool, dst []byte) ([]byte, bool) {
	switch {
	case pl.spec == specHit:
		dst = c.finishSpecHit(start, pl, dst)
	case pl.hit:
		dst = c.finishWalkHit(start, pl, dst)
	case !probe:
		c.finishMiss(start, pl)
	}
	return dst, pl.hit
}

// finishHit is THE completion of a Get hit, shared by the serial and
// batched drivers and by both ways of finding the object: the framework's
// metadata maintenance (§4.1, off the critical path) — the stateless
// last_ts with one asynchronous RDMA_WRITE, any expert extension
// metadata with one more asynchronous RDMA_WRITE to the object — then the
// location-cache hint, the hot-key promotion hook, the counters and the
// observer report. It returns dst extended by the value — copied here
// because dec views the buffer of a pooled plan the caller is about to
// put back.
//
// h carries the slot-metadata view the maintenance works from: a bucket
// walk builds it from the slot it just read (finishWalkHit), a
// speculative hit passes the hint that found the object (finishSpecHit)
// — the whole point of which is not to have a fresh slot. Either caller
// has already buffered this hit's +1 in the FC cache (the stateful freq
// travels as combined RDMA_FAAs) and folded it into h.Freq.
func (c *Client) finishHit(start int64, key []byte, dec decodedObject, h *loccache.Hint, dst []byte) []byte {
	now := c.p.Now()
	c.ht.TouchLastTs(h.SlotAddr, now)
	if c.cl.opts.DisableSFHT {
		// Metadata scattered with the object: stateless fields cannot be
		// grouped into a single WRITE. meta8 is reusable because the
		// async WRITE applies before returning.
		c.metaWriteAsync(h.Addr, c.meta8[:])
	}
	if len(dec.ext) > 0 {
		meta := &c.extMeta
		*meta = cachealgo.Metadata{
			Size:     h.Len,
			InsertTs: h.InsertTs,
			LastTs:   h.LastTs,
			Freq:     h.Freq,
		}
		for i, a := range c.experts {
			n := a.ExtSize()
			if n == 0 {
				continue
			}
			meta.Ext = dec.ext[c.extOff[i] : c.extOff[i]+n]
			a.UpdateExt(meta, now)
		}
		c.metaWriteAsync(h.Addr+objHeader, dec.ext)
	}
	// Record (or refresh) the hint on EVERY hit — main bucket, overflow
	// or speculative — so repeat reads reach one RTT. Pre-stamp images
	// (ver 0: impossible in-sim but cheap to guard) are never hinted;
	// ver 0 is the cleared/freed marker.
	if c.loc != nil && h.Ver != 0 {
		h.LastTs = now
		c.loc.Record(key, *h)
	}
	if c.onHit != nil {
		c.onHit(dec.key, dec.tenant, h.Freq)
	}
	c.Stats.Gets++
	c.Stats.Hits++
	c.served.Inc()
	val := append(dst, dec.value...)
	c.report(OpGet, start, true)
	return val
}

// noteHit buffers this hit's +1 in the FC cache and returns the key's
// logical frequency including it. The pending delta MUST be read before
// fc.Add: the remote snapshot s.Freq predates every buffered increment,
// so the logical count is snapshot + buffered-before-this-hit + 1. Adding
// first would fold the current hit into the pending delta and count it
// twice whenever it was buffered, biasing LFU-family expert priorities
// upward on exactly the keys the FC cache combines hardest.
func (c *Client) noteHit(s hashtable.Slot, keyLen int) uint64 {
	freq := s.Freq + 1 + c.fc.PendingDelta(s.Addr)
	c.fc.Add(s.Addr, keyLen)
	return freq
}

// finishWalkHit completes a full bucket-walk hit: the slot's published
// pointer and size class, the image's incarnation stamp and the slot's
// metadata snapshot become the view finishHit maintains metadata from
// (and records as the key's hint).
func (c *Client) finishWalkHit(start int64, pl *getPlan, dst []byte) []byte {
	s := pl.slot
	h := loccache.Hint{
		Addr:     s.Atomic.Pointer(),
		Len:      s.Atomic.SizeBytes(),
		Ver:      pl.dec.ver,
		Tenant:   uint8(pl.dec.tenant),
		SlotAddr: s.Addr,
		InsertTs: s.InsertTs,
		LastTs:   s.LastTs,
		Freq:     c.noteHit(s, len(pl.key)),
	}
	return c.finishHit(start, pl.key, pl.dec, &h, dst)
}

// finishSpecHit completes a validated speculative hit from the hint's
// slot-metadata snapshot. The frequency convention is hint.Freq + 1: the
// hint's Freq already folded the pending FC delta when it was recorded
// off a full bucket walk, so re-adding PendingDelta here would double
// count; between full walks the estimate is blind to other clients'
// accesses, the same fidelity class as the FC cache itself. The
// refreshed hint keeps Addr/Ver — a validated hit proves them current.
func (c *Client) finishSpecHit(start int64, pl *getPlan, dst []byte) []byte {
	c.Stats.SpecGetHits++
	pl.hint.Freq++
	c.fc.Add(pl.hint.SlotAddr, len(pl.key))
	return c.finishHit(start, pl.key, pl.dec, &pl.hint, dst)
}

// finishMiss is THE completion of a counted Get miss: counters, regret
// collection off the plan's history matches, the observer report.
func (c *Client) finishMiss(start int64, pl *getPlan) {
	c.Stats.Gets++
	c.Stats.Misses++
	c.served.Inc()
	if c.adapt != nil {
		c.collectRegrets(pl.histMatches)
		if c.cl.opts.DisableLWH {
			// Conventional design: a separate remote hash index over the
			// history must be probed on every miss.
			c.probeConventionalIndex()
		}
	}
	c.report(OpGet, start, false)
}

// noteSetLocation records the hint for a setDone outcome: the writer
// knows the block it just published (address, size class, stamp) without
// any extra verbs, so its own next Get of the key starts one-RTT. For an
// out-of-place update the slot keeps its insert timestamp and running
// frequency; a fresh insert starts at freq 1.
func (c *Client) noteSetLocation(pl *setPlan) {
	if c.loc == nil {
		return
	}
	h := loccache.Hint{
		Addr:     pl.addr,
		Len:      pl.want.SizeBytes(),
		Ver:      pl.ver,
		Tenant:   uint8(pl.tenant),
		SlotAddr: pl.slotAddr,
		InsertTs: pl.now,
		LastTs:   pl.now,
		Freq:     1,
	}
	if pl.mode == pUpdate && !pl.expUpd {
		h.InsertTs = pl.updSlot.InsertTs
		h.Freq = pl.updSlot.Freq + 1
	}
	c.loc.Record(pl.key, h)
}

// nextVer returns the next incarnation stamp for an image this client
// stages: the cluster-assigned client id (verBase) concatenated with a
// per-staging sequence. Unique across the cluster (object.go), never 0,
// and drawn from plain counters so determinism and randomness order are
// untouched.
func (c *Client) nextVer() uint64 {
	c.verSeq++
	return c.verBase | uint64(c.verSeq)
}

// collectRegrets penalizes experts recorded in valid history entries for
// the missed key (§4.3.1 "Regret collection"), then consumes the entries.
func (c *Client) collectRegrets(matches []hashtable.Slot) {
	if len(matches) == 0 {
		return
	}
	// One cheap counter refresh per miss-with-candidates keeps expiry
	// checks honest for get-dominated clients.
	c.hist.RefreshCounter()
	for _, s := range matches {
		bitmap, age, ok := c.hist.Match(s, s.Hash)
		if !ok {
			continue
		}
		c.adapt.Penalize(bitmap, age)
		c.Stats.Regrets++
		c.hist.ClearHash(s.Addr)
	}
}

// ----------------------------------------------------------------- Set ----

// shrinkEvictBatch bounds how many over-budget evictions one Set absorbs
// after a ShrinkCache, amortizing the drain across the write path.
const shrinkEvictBatch = 8

// Set inserts or updates key. Critical path for an insert: one READ
// (bucket search), then one WRITE (object to a free location) and one
// CAS (publish the pointer) sharing a round trip — §4.1 — plus eviction
// work only when the memory pool is full, and then one round trip more
// (the victim CAS): the store driver prefetches the eviction beside the
// bucket READ. The verb sequence is the setPlan in plan.go — the same
// plan MSet runs as doorbell batches — traversed serially here by the
// store driver.
func (c *Client) Set(key, value []byte) {
	start := c.p.Now()
	c.Stats.Sets++
	c.drainOverBudget(shrinkEvictBatch)
	if !c.store(key, value, nil, true, start) {
		panic(fmt.Errorf("%w: Set retries exhausted (table misconfigured?)", ErrNoProgress))
	}
}

// storeAttempts bounds the store driver's plan runs.
const storeAttempts = 4096

// store is THE serial store driver: run a setPlan serially and settle
// it; retry, bounded by storeAttempts — false means the budget ran out (a
// misconfigured table). pl, when non-nil, is a finished first attempt the
// caller already ran (a replica fan-out's plan); the driver takes it over
// and puts it back.
//
// counted selects the client-operation flavour (settle), whose retries
// — every one a lost publishing CAS — also back off briefly first: hot
// keys attract concurrent out-of-place updates, and the CAS loser sleeps
// like the paper's lock back-off so contenders don't stay lock-stepped.
// Uncounted stores are maintenance (replica copies): their writers are
// serialized by the hot-key entry lock, so there is no lock-step to break.
func (c *Client) store(key, value []byte, pl *setPlan, counted bool, start int64) bool {
	for attempt := 0; attempt < storeAttempts; attempt++ {
		if pl == nil {
			pl = c.sets.get().reset(c, key, value)
			c.arm(pl)
			c.runner.Serial.Run(pl)
		}
		stored := c.settle(pl, counted, start)
		c.disarm(pl)
		c.sets.put(pl)
		if stored {
			return true
		}
		pl = nil
		if counted {
			backOff(c.p)
		}
	}
	return false
}

// arm takes the attempt's block before its first verb, and when the
// allocator has none — the pool is full — prefetches the eviction with a
// pooled evictPlan instead (setPlan, plan.go): dryness is known up front,
// so the eviction's sample rides the bucket READ's round trip instead of
// following the walk. The allocator itself answers, so its supply-probe
// cadence — how a client in a full cache finds grown memory — is kept in
// one place; a probe that falls due is the plan's to post, beside the
// same bucket READ. Never beside a background reclaimer: making room is
// its job, and the write's the bounded stall in allocOrEvict.
func (c *Client) arm(pl *setPlan) {
	if c.cl.reclaimEnabled {
		return
	}
	if pl.addr, pl.held, pl.probe = c.alloc.TryAlloc(pl.size); !pl.held {
		pl.ev = c.evs.get().reset(c)
	}
}

// disarm takes back a finished attempt's eviction: counted as a resample
// when it was one (evictBatch's convention) and put back whatever state
// the plan left it in — won, lost, or dropped between groups.
func (c *Client) disarm(pl *setPlan) {
	if pl.ev == nil {
		return
	}
	if pl.ev.resample() {
		c.Stats.EvictResamples++
	}
	c.evs.put(pl.ev)
	pl.ev = nil
}

// settle consumes one finished store attempt, shared by the serial
// driver and the batched passes, and reports whether the pair is stored; one
// that is not lost its publishing CAS, and the caller re-runs it.
//
// counted is the client-operation flavour: the attempt's chases and its
// re-run count in Stats.SetRetries, and completion records the location
// hint and reports the latency since start. Uncounted stores are
// maintenance: no stats, no hint, no report.
func (c *Client) settle(pl *setPlan, counted bool, start int64) bool {
	if counted {
		c.Stats.SetRetries += int64(pl.chases)
	}
	if pl.outcome != setDone {
		if counted {
			c.Stats.SetRetries++
		}
		return false
	}
	if counted {
		c.noteSetLocation(pl)
		c.report(OpSet, start, true)
	}
	return true
}

// backOff sleeps the random ≤2 µs a counted store waits before re-running
// lost attempts.
func backOff(p *sim.Proc) { p.Sleep(p.Rand().Int63n(2 * sim.Microsecond)) }

// allocStallTick is how long a write sleeps per stall round waiting for
// the background reclaimer (about one eviction RTT chain), and
// allocStallRounds bounds those rounds before the write gives up on the
// reclaimer and evicts inline.
const (
	allocStallTick   = 2 * sim.Microsecond
	allocStallRounds = 64
)

// allocOrEvict allocates size bytes, evicting objects until space frees
// up; it panics only when the pool is exhausted with nothing evictable.
//
// A serial Set into a full cache normally never evicts here: its store
// driver prefetched the eviction (store), and the victim's block is on
// the free list by now. This is what is left — batched stores, writes
// behind a background reclaimer, a prefetched attempt that freed nothing.
//
// With a background reclaimer enabled (Cluster.EnableBackgroundReclaim)
// the inline eviction is the LAST resort: a successful allocation posts
// the next pool grant ahead of need when it took the last local block
// (Alloc.PrefetchGrant) and kicks the reclaimer ahead of demand when it
// dipped below the low watermark; a failed one stalls in bounded ticks —
// polling the local allocator and the controller pool the reclaimer
// surrenders freed blocks into — so the write's latency is the
// reclaimer's catch-up time, not the full eviction verb chain. WriteStallNs accumulates everything a write
// waited beyond a clean allocation (reclaimer ticks AND inline eviction
// verbs — the "eviction-stall time" the churn bench reports);
// WriteStallTicks counts only the reclaimer stall rounds.
func (c *Client) allocOrEvict(size int) uint64 {
	addr, ok := c.alloc.Alloc(size)
	if ok {
		if c.cl.reclaimEnabled {
			c.alloc.PrefetchGrant(size)
		}
		c.cl.maybeKickReclaim()
		return addr
	}
	start := c.p.Now()
	defer func() { c.Stats.WriteStallNs += c.p.Now() - start }()
	if c.cl.reclaimEnabled {
		c.cl.kickReclaimer()
		// Earlier surrenders may already sit in the pool (the local allocator
		// re-asks only once a supply probe saw it refilled): check first.
		if addr, ok = c.alloc.AllocFromPool(size); ok {
			return addr
		}
		for round := 0; round < allocStallRounds; round++ {
			c.Stats.WriteStallTicks++
			// Feed the node's overload signal: the stall rate is what
			// TryMSet's shed decision reads (tenancy.go).
			c.cl.MN.NoteStallTick(c.p.Now())
			c.p.Sleep(allocStallTick)
			if addr, ok = c.alloc.Alloc(size); ok {
				return addr
			}
			if addr, ok = c.alloc.AllocFromPool(size); ok {
				return addr
			}
			c.cl.kickReclaimer() // re-kick: a kick sent mid-round is lost
		}
	}
	for !ok {
		if !c.evictOne() {
			panic(fmt.Errorf("%w: memory pool exhausted and nothing evictable", ErrNoProgress))
		}
		addr, ok = c.alloc.Alloc(size)
	}
	return addr
}

// updateExt rebuilds an object's extension metadata for an out-of-place
// update, into dst (reused when it has capacity). The frequency
// convention matches noteHit — snapshot + pending delta + 1 for the
// current access, with the pending delta read before the access is
// buffered (the fc.Add runs only after the CAS publishes the update).
func (c *Client) updateExt(dst []byte, s hashtable.Slot, old decodedObject, size int, now int64) []byte {
	ext := grow(dst, c.cl.totalExt)
	n := copy(ext, old.ext)
	clear(ext[n:])
	meta := &c.extMeta
	*meta = cachealgo.Metadata{
		Size:     hashtable.SizeClassBytes(size),
		InsertTs: s.InsertTs,
		LastTs:   s.LastTs,
		Freq:     s.Freq + 1 + c.fc.PendingDelta(s.Addr),
	}
	for i, a := range c.experts {
		if n := a.ExtSize(); n > 0 {
			meta.Ext = ext[c.extOff[i] : c.extOff[i]+n]
			a.UpdateExt(meta, now)
		}
	}
	return ext
}

// finishInsert applies the post-CAS effects of a successful insert: drop
// any stale buffered delta bound to the recycled slot and initialize the
// slot metadata (async).
func (c *Client) finishInsert(slotAddr uint64, kh uint64, now int64) {
	c.fc.Forget(slotAddr)
	c.ht.WriteMetaOnInsert(slotAddr, kh, now, now, 1)
}

// initExts builds the initial extension metadata for a new object, into
// dst (reused when it has capacity).
func (c *Client) initExts(dst []byte, size int, now int64) []byte {
	if c.cl.totalExt == 0 {
		return nil
	}
	ext := grow(dst, c.cl.totalExt)
	clear(ext)
	meta := &c.extMeta
	*meta = cachealgo.Metadata{
		Size:     hashtable.SizeClassBytes(size),
		InsertTs: now,
		LastTs:   now,
		Freq:     1,
	}
	for i, a := range c.experts {
		if n := a.ExtSize(); n > 0 {
			meta.Ext = ext[c.extOff[i] : c.extOff[i]+n]
			a.InitExt(meta, now)
		}
	}
	return ext
}

// ----------------------------------------------------------- Migration ----

// The SET half of a reshard's READ-old/SET-new/delete-behind step is the
// setPlan in migrate (insert-if-absent) mode plus the source delete CAS —
// see migratePlan in plan.go and the resharder drivers in multi.go.

// surrenderFreeBlocks hands the client's local free lists back to the MN
// controller; called by transient clients (the resharder) on their way
// out so freed space is not stranded.
func (c *Client) surrenderFreeBlocks() { c.alloc.Surrender() }

// dropMigrated undoes a migrated insert (a migrate-mode setPlan) with a
// precise CAS on the exact
// slot/value it created. A failed CAS means a client already replaced or
// deleted the copy — the newer state wins and nothing is freed. t is the
// tenant the insert was charged to; the undo credits it back.
func (c *Client) dropMigrated(slotAddr uint64, atom hashtable.AtomicField, t TenantID) {
	if _, swapped := c.ht.CASAtomic(slotAddr, atom, 0); swapped {
		c.releaseBlock(atom, slotAddr, t)
	}
}

// -------------------------------------------------------------- Delete ----

// Delete removes key from the cache, reporting whether it was present.
// The verb sequence is the delPlan in plan.go — the same plan MDelete
// runs as doorbell batches — traversed serially here; see its comment for
// why the scan covers BOTH buckets to completion.
func (c *Client) Delete(key []byte) bool {
	c.Stats.Deletes++
	if c.loc != nil {
		c.loc.Drop(key)
	}
	pl := c.dels.get().reset(c, key)
	c.runner.Serial.Run(pl)
	c.dels.put(pl)
	return pl.deleted
}
