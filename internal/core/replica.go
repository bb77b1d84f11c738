package core

// Hot-key replication with load-aware read spreading.
//
// The consistent-hash ring (internal/ring) maps every key to exactly one
// memory node, so a zipfian workload saturates the node owning the hot
// tail while its peers idle. This layer relieves that skew with the
// hotness signal Ditto's clients already maintain (§4.2.2/§4.3): when a
// hit's logical frequency — remote snapshot + pending FC-cache delta +
// this hit, the accounting convention shared by noteHit/updateExt —
// crosses MultiCluster.HotThreshold, the key is PROMOTED: its value is
// materialized on the R ring-successor nodes of its primary owner
// (ring.OwnersN) and recorded in the cluster-shared hot-key directory
// (internal/hotset). Reads of a promoted key then rotate across the
// primary and its replicas (spreading the RNIC load 1/(1+R)); writes go
// through the primary first and then update every replica with
// publish-CAS-ordered verb plans — the same setPlan/delPlan declared in
// plan.go — executed under the pool's one strategy setting
// (MultiCluster.SetStrategy: exec.Doorbell or exec.Serial, identical
// results).
//
// The layer plugs into MultiClient's routed pipelines (multi.go) as their
// replication stage: spread serves the read pipeline, and the
// replicated-write bracket — beginWrite … writeThrough | (routed write)
// … endWrite — is opened and closed by the write and remove pipelines,
// in exactly one place each.
//
// Observable equivalence with the unreplicated cache rests on one
// invariant: AFTER ANY COMPLETED WRITE, EVERY COPY A SPREAD READ CAN
// REACH EQUALS THAT WRITE. It is maintained by:
//
//   - Per-key write serialization: writers and maintainers hold the
//     hotset entry lock across primary write + replica fan-out, so
//     replica update order cannot diverge across concurrent writers.
//   - Invalidate-first write-through: a replicated write, under the
//     entry lock, DELETES every replica copy before its primary
//     publishing CAS and only then re-materializes them. A spreadable
//     replica therefore only ever holds the primary's current value or
//     nothing (a probe miss falls back to the primary): once a reader
//     has seen a new value from any copy, no copy can serve the old one
//     — reads stay monotonic with no reader-side locking. Without the
//     invalidation, a reader could see the primary's new value and then
//     a not-yet-updated replica's old one mid-fan-out: a non-monotonic
//     pair no single-copy cache can produce.
//   - Write-repair + warming: a writer that found NO entry runs
//     unreplicated but REGISTERED (hotset.BeginWrite — pure
//     bookkeeping, nothing ever blocks on it, so promotion cannot
//     starve even when hot keys always have writes in flight), then
//     re-checks the directory after its publishing CAS and, if an entry
//     appeared meanwhile, repairs it before returning: re-read the
//     primary under the entry lock and push its CURRENT value (not the
//     writer's own — concurrent repairs then converge regardless of
//     lock order) to every replica. The registry closes the divergence
//     window the lock cannot see: promotion publishes its entry as
//     WARMING when any registered write is in flight at publish time,
//     readers refuse to spread from warming entries, and the entry
//     turns spreadable only when a repair or replicated fan-out
//     completes with no other registered writer left — a lock-held
//     moment at which every copy provably equals the primary, after
//     which unreplicated writers can no longer exist (any new writer
//     finds the entry and goes through the lock). Entries are BORN
//     warming: materialization itself is a fan-out over copies readers
//     must not spread to yet.
//   - Epoch staleness: entries record the routing epoch of promotion. A
//     ring switch bumps the epoch, so readers refuse to spread from
//     stale entries and writers demote them on first touch. Promotions
//     are refused while a reshard window is open, an in-flight
//     promotion self-demotes on the epoch change, and the resharder
//     demotes every entry — dissolving every replica copy — BEFORE its
//     migration scan begins (demoteAll), so the scan only ever
//     encounters single copies: a replica copy reaching the scan could
//     make the authoritative primary copy look like a migration
//     duplicate and get it garbage-collected.
//
// Demotion is load-aware in the other direction too: replication pays
// 1+R writes per Set, so an entry whose write count overtakes its spread
// reads (demoteMinWrites/demoteWriteReadRatio) is dropped, and the
// directory evicts its least-recently-read entry when full. A replica
// miss (copy not yet materialized, or evicted) silently falls back to
// the primary — spreading can never turn a present key into a miss.

import (
	"fmt"

	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/hotset"
	"ditto/internal/rdma"
	"ditto/internal/ring"
)

// defaultMaxHotKeys bounds the hot-key directory when
// EnableHotKeyReplication is given no explicit capacity. The hot tail of
// a zipfian workload is short — a few hundred keys cover most of the
// skewed mass — and every entry costs 1+R object copies of heap.
const defaultMaxHotKeys = 256

// promoQueueCap bounds the per-operation promotion candidate queue; hits
// beyond it re-candidate on a later operation.
const promoQueueCap = 16

// Write-heavy demotion: an entry is dropped once it has absorbed at
// least demoteMinWrites write-throughs AND its writes exceed
// demoteWriteReadRatio times its spread reads since promotion — at that
// point the 1+R-copy write fan-out costs more RNIC budget than read
// spreading recovers.
const (
	demoteMinWrites      = 16
	demoteWriteReadRatio = 2
)

// EnableHotKeyReplication turns on hot-key replication: keys whose hit
// frequency reaches threshold are copied to the factor ring-successor
// nodes of their primary owner and their reads spread across all copies.
// maxHotKeys caps the directory (defaultMaxHotKeys when <= 0). Call it
// before creating clients — the promotion signal is installed when a
// client connects. Replication is usable on a single-node pool (it just
// never promotes) and survives AddNode/RemoveNode: a ring switch demotes
// every entry and still-hot keys re-promote under the new ring.
func (mc *MultiCluster) EnableHotKeyReplication(factor int, threshold uint64, maxHotKeys int) {
	if factor < 1 {
		factor = 1
	}
	if threshold < 1 {
		threshold = 1
	}
	if maxHotKeys <= 0 {
		maxHotKeys = defaultMaxHotKeys
	}
	mc.ReplicaFactor = factor
	mc.HotThreshold = threshold
	mc.hot = hotset.New(mc.Env, maxHotKeys)
	for _, id := range mc.order {
		mc.installEvictHook(id, mc.nodes[id])
	}
}

// installEvictHook points one node's eviction-victim hook at the hot-key
// directory: evicting a promoted key's primary copy flags its entry so
// the next directory touch demotes it — otherwise the replicas would
// keep serving a key the cache decided to drop. The hook sees only the
// victim's key hash (slots store no key bytes) and must not issue verbs,
// so it marks and returns; every eviction path (sample plans, the
// background reclaimer, displacements) reports through it.
func (mc *MultiCluster) installEvictHook(id int, cl *Cluster) {
	cl.onEvictHash = func(kh uint64) { mc.hot.MarkPrimaryEvicted(id, kh) }
}

// noteHotCandidate is the Client.onHit hook: it queues a key for
// promotion when its observed hit frequency crosses the threshold. It
// must not issue verbs (it runs inside the hit path), so the promotion
// itself — which reads the value and materializes copies — is deferred
// to drainPromotions at the next operation boundary. The hit's decoded
// tenant rides along: replication multiplies a key's footprint by 1+R,
// so an over-quota tenant's keys are refused promotion — a noisy
// neighbor cannot amplify its own overage through the hot tail.
func (m *MultiClient) noteHotCandidate(key []byte, tenant TenantID, freq uint64) {
	mc := m.mc
	if freq < mc.HotThreshold || mc.snap().oldRing != nil || mc.NumNodes() < 2 {
		return
	}
	if mc.TenantOverQuota(tenant) {
		return
	}
	if mc.hot.Lookup(key) != nil || len(m.promo) >= promoQueueCap {
		return
	}
	m.promo = append(m.promo, promoCand{key: append([]byte(nil), key...), tenant: tenant})
}

// drainPromotions promotes every queued candidate. Called at the top of
// the read and write pipelines, so promotion verbs never extend the
// operation that detected the hotness.
func (m *MultiClient) drainPromotions() {
	if len(m.promo) == 0 {
		return
	}
	pending := m.promo
	m.promo = nil
	for _, cand := range pending {
		m.promote(cand.key, cand.tenant)
	}
}

// promote materializes key's value on its ring-successor nodes and
// publishes the hotset entry. The entry is inserted "born locked", so no
// writer can interleave with materialization; unreplicated writes
// already in flight are reconciled by their own write-repair re-check
// (see the file comment). Promotion aborts when the key is gone (deleted
// or evicted since the qualifying hit) and demotes itself when a ring
// switch lands mid-materialization.
func (m *MultiClient) promote(key []byte, tenant TenantID) {
	mc := m.mc
	if mc.snap().oldRing != nil || mc.hot.Lookup(key) != nil {
		return
	}
	if mc.TenantOverQuota(tenant) {
		return // usage moved since the qualifying hit; re-candidate later
	}
	// Capture the epoch BEFORE deriving the successor list: everything
	// from here to Insert can yield (the victim demotions below issue
	// verbs), and a ring switch in one of those yields must make the
	// entry's final epoch check fail — an entry recording the
	// post-switch epoch over pre-switch owners would evade both that
	// check and the resharder's window-opening sweep, putting replica
	// copies in front of the migration scan.
	route := mc.snap()
	epoch := route.epoch
	owners := route.hashRing.OwnersN(ring.Point(hashtable.KeyHash(key)), 1+mc.ReplicaFactor)
	if len(owners) < 2 {
		return // single-node pool: nothing to spread to
	}
	now := m.p.Now()
	// Full directory: demote the least-recently-read entry to make room.
	for mc.hot.Len() >= mc.hot.Limit() {
		v := mc.hot.Victim()
		if v == nil {
			return // every entry under maintenance; retry on a later hit
		}
		if e := mc.hot.Lock(m.p, v.Key); e != nil {
			m.demoteLocked(e)
		}
	}
	// The demotions above may have yielded: re-validate before the
	// atomic (yield-free) check-and-insert.
	if cur := mc.snap(); cur.oldRing != nil || cur.epoch != epoch {
		return
	}
	e := &hotset.Entry{
		Key:      append([]byte(nil), key...),
		KeyHash:  hashtable.KeyHash(key),
		Epoch:    epoch,
		Primary:  owners[0],
		Replicas: owners[1:],
		Tenant:   byte(tenant),
	}
	e.Touch(now) // not Victim's immediate minimum before its first read
	// Born warming: no reader may spread until materialization is
	// complete AND no unreplicated write that could supersede the
	// snapshot is in flight.
	e.Warming = true
	if !mc.hot.Insert(m.p, e) {
		return // raced another promoter
	}
	val, ok := m.readQuiet(e.Primary, key)
	if !ok {
		mc.hot.Remove(e) // key vanished since the qualifying hit
		return
	}
	if err := m.updateReplicas(e, key, val); err != nil {
		// Promotion is opportunistic maintenance: a fan-out that cannot
		// be driven to completion must not take down the reader whose
		// hit triggered it. Take the copies back; the underlying fault
		// resurfaces loudly on the next direct write.
		m.demoteLocked(e)
		return
	}
	if e.Epoch != mc.snap().epoch {
		// A reshard window opened mid-materialization: the copies sit on
		// successors of a ring that is already being replaced. Take them
		// back rather than publish a stale entry.
		m.demoteLocked(e)
		return
	}
	// An unreplicated write in flight right now may have published a
	// value our snapshot predates: stay warming (readers won't spread)
	// until that writer's repair — or a later replicated fan-out —
	// observes write-quiescence and clears it.
	e.Warming = mc.hot.InflightWrites(key) > 0
	mc.hot.Unlock(e)
	mc.Promotions++
}

// stale reports whether e's replica set can no longer be trusted: the
// ring moved under it (its epoch is old, or a reshard window is open), or
// its primary copy was evicted — the cache dropped the key, so the
// replicas must not resurrect it. Readers refuse to spread from a stale
// entry and every toucher demotes it.
func (m *MultiClient) stale(e *hotset.Entry) bool {
	s := m.mc.snap()
	return e.Epoch != s.epoch || s.oldRing != nil || e.Evicted
}

// spread is the read pipeline's replication stage: every key whose
// rotation picks a replica is probed there — one stat-silent read per
// chosen node — and served on a hit; every other index (unreplicated,
// stale or warming entry, primary-targeted, or probe-missed: copy not yet
// materialized, or evicted) is appended to pend for the routed path. A
// replica miss is silent, so the fall-back counts exactly one logical
// operation, like an unreplicated read.
func (m *MultiClient) spread(sc *routeScratch, pend []int, keys, vals [][]byte, oks []bool, strat exec.Strategy) []int {
	targets := sc.stable[:0]
	for i := range keys {
		if t := m.spreadTarget(keys[i]); t >= 0 {
			sc.cur[i] = t
			targets = append(targets, i)
		} else {
			pend = append(pend, i)
		}
	}
	if len(targets) > 0 {
		routed := len(pend)
		pend = m.fanout(sc, targets, sc.cur, m.mc.snap().epoch).mget(strat, keys, vals, oks, true, pend)
		m.mc.SpreadReads += int64(len(targets) - (len(pend) - routed))
	}
	return pend
}

// spreadTarget returns the replica node that should serve this read of
// key, or -1 to send it down the routed (primary) path.
func (m *MultiClient) spreadTarget(key []byte) int {
	e := m.mc.hot.Lookup(key)
	if e == nil {
		return -1
	}
	if m.stale(e) {
		m.demoteKey(key)
		return -1
	}
	if e.Warming {
		// Pre-entry writes may not have been repaired into the copies
		// yet: serve through the primary until the entry validates.
		e.NoteRead(m.p.Now())
		return -1
	}
	t := e.ReadTarget(m.p.Now())
	if t == e.Primary || m.clientFor(t) == nil {
		return -1
	}
	return t
}

// beginWrite opens the replicated-write bracket for one key of a write
// or remove. It returns key's entry, LOCKED, when the write must go
// through it (writeThrough); otherwise it returns nil with the key
// REGISTERED as an unreplicated write in flight (hotset.BeginWrite — in
// the same scheduling slice as the entry's absence, so a promotion
// published later provably sees the registration and comes up warming),
// and the caller closes the bracket with endWrite after its routed verbs.
//
// An MSet carrying several pairs of one key opens the bracket for EVERY
// pair, in pair order: a replicated key's pairs are each written through
// (so every copy ends on the last), an unreplicated key's pairs each
// register. The pairs a later pair of the same key supersedes are dropped
// only BEHIND the bracket, by the batched driver that stores the routed
// rest (setBatch.stage, batch.go: such a pair issues no verb), and endWrite
// still closes one registration per pair — dropping them before it would
// need the key comparison twice and buy nothing: hot keys are read-heavy,
// a batch rarely carries one twice.
//
// An entry is dissolved rather than written through when the operation
// is a remove (replicas are invalidated under the entry lock BEFORE the
// primary copy is cleared), when it is stale, when its writes have
// overtaken its spread reads (the 1+R-copy fan-out costs more than
// spreading recovers), or when its tenant went over quota since
// promotion (demotion dissolves the 1+R-copy amplification of its
// footprint, the same direction quota eviction pushes from below). The
// demote's invalidation completes before the registered write begins.
func (m *MultiClient) beginWrite(key []byte, remove bool) *hotset.Entry {
	hot := m.mc.hot
	if e := hot.Lock(m.p, key); e != nil {
		e.Writes++
		writeHeavy := e.Writes >= demoteMinWrites && e.Writes > demoteWriteReadRatio*e.Reads
		if !remove && !m.stale(e) && !writeHeavy && !m.mc.TenantOverQuota(TenantID(e.Tenant)) {
			return e
		}
		m.demoteLocked(e)
	}
	hot.BeginWrite(key)
	return nil
}

// endWrite closes the bracket beginWrite left open on a registered key:
// repair any entry a racing promotion published meanwhile (skipped when
// the write itself failed — there is nothing new to push), then
// unregister. The registration is released before a repair failure
// surfaces: a forever-registered write would pin a racing promotion's
// entry warming permanently.
func (m *MultiClient) endWrite(key []byte, repair bool) error {
	var err error
	if repair {
		err = m.resyncAfterWrite(key)
	}
	m.mc.hot.EndWrite(key)
	return err
}

// writeThrough writes pairs[i] — a replicated key — with e's lock HELD,
// in invalidate-first order: delete every replica copy, publish the
// primary's CAS (a routed write of one, so a ring switch mid-write still
// lands on the right owner), then re-materialize the replicas. From the
// moment the new value is readable on the primary, every replica is
// empty or already updated — a spread read can never return the
// superseded value, and after the unlock every copy equals this write.
func (m *MultiClient) writeThrough(e *hotset.Entry, pairs []KV, i int) error {
	m.invalidateReplicas(e) // replicas empty before the new value is readable
	one := [1]int{i}
	err := catchUnavailable(func() { m.writeRouted(pairs, one[:], exec.Serial) })
	if err == nil {
		err = m.updateReplicas(e, pairs[i].Key, pairs[i].Value)
	}
	if err != nil {
		// Either the primary's owner fail-stopped before the write landed
		// — the replicas are already invalidated, so no copy can serve
		// the old value — or the primary holds the new value but the
		// fan-out could not be driven to completion (a misconfigured
		// table). Dissolving the entry releases the lock (future writers
		// are not deadlocked behind a live-but-failed owner) and leaves
		// the key correct unreplicated; then the typed failure surfaces.
		m.demoteLocked(e)
		return err
	}
	if e.Warming && m.mc.hot.InflightWrites(pairs[i].Key) == 0 {
		// Every pre-entry writer has completed (and repaired): our
		// fan-out just made all copies equal to the primary, so the
		// entry is safe to spread from.
		e.Warming = false
	}
	m.mc.hot.Unlock(e)
	return nil
}

// updateReplicas stores (key, value) on every replica node of e as a
// fan-out of ordinary setPlans (plan.go) run under the pool's strategy; any
// plan that hits a complication (full bucket, lost CAS) finishes through
// the store driver, exactly as a client Set would. Replica stores
// are maintenance: they keep the per-node copies, but do not count as
// logical Sets in any client's Stats.
func (m *MultiClient) updateReplicas(e *hotset.Entry, key, value []byte) error {
	plans, run := m.fanSets[:0], m.fanRun[:0]
	for _, id := range e.Replicas {
		c := m.clientFor(id)
		if c == nil {
			continue // node left the pool; the stale entry is demoted on next touch
		}
		pl := c.sets.get().reset(c, key, value)
		plans, run = append(plans, pl), append(run, pl)
	}
	m.fanSets, m.fanRun = plans, run
	if len(run) == 0 {
		return nil
	}
	// A replica that fail-stops mid-fan-out is skipped: its copies died
	// with it, and a missing copy is always safe — a spread read that
	// probe-misses falls back to the primary. (Under Doorbell the batch
	// has partial semantics: live siblings' verbs applied, the dead
	// node's did not; the per-replica finish below drives each survivor
	// to completion from whatever outcome its plan reached.)
	_ = rdma.CatchUnreachable(func() { m.runner.RunPlans(m.mc.strategy, run) })
	// A store that exhausts its retry budget (ErrNoProgress: a
	// misconfigured table) is remembered but does not abandon the
	// remaining replicas mid-store; the caller demotes the entry, so no
	// partial copy set outlives the error.
	var firstErr error
	for _, pl := range plans {
		c := pl.c
		if c.cl.dead {
			continue
		}
		// Drive the store to completion from whatever outcome the fan-out
		// attempt reached — the client store driver, uncounted, which
		// takes the plan over and puts it back.
		stored := false
		if rdma.CatchUnreachable(func() { stored = c.store(key, value, pl, false, 0) }) != nil {
			continue // this replica fail-stopped mid-store; skip it
		}
		if !stored && firstErr == nil {
			firstErr = fmt.Errorf("%w: replica store stalled (table misconfigured?)", ErrNoProgress)
		}
	}
	return firstErr
}

// readQuiet reads key's value from one node with the client's quiet walk
// — no stats, no frequency touch, no observer report — for maintenance
// reads (promotion's value snapshot) that must not perturb the hit
// accounting.
func (m *MultiClient) readQuiet(node int, key []byte) ([]byte, bool) {
	c := m.clientFor(node)
	if c == nil {
		return nil, false
	}
	var val []byte
	var hit bool
	if rdma.CatchUnreachable(func() {
		pl := c.walk(key, false)
		if hit = pl.hit; hit {
			val = append([]byte(nil), pl.dec.value...)
		}
		c.gets.put(pl)
	}) != nil {
		// The node fail-stopped mid-read: its copy is gone. Callers treat
		// a maintenance-read miss as "key vanished" and demote — exactly
		// right for a crashed primary.
		return nil, false
	}
	return val, hit
}

// invalidateReplicas deletes every replica copy of e — a fan-out of
// delPlans (plan.go) under the pool's strategy. delPlans have no fallback
// edges (a lost delete CAS means someone else already removed or
// replaced that copy), so one pass suffices. Replica nodes that left the
// pool are skipped: their copies left with them.
func (m *MultiClient) invalidateReplicas(e *hotset.Entry) {
	plans, run := m.fanDels[:0], m.fanRun[:0]
	for _, id := range e.Replicas {
		if c := m.clientFor(id); c != nil {
			pl := c.dels.get().reset(c, e.Key)
			plans, run = append(plans, pl), append(run, pl)
		}
	}
	m.fanDels, m.fanRun = plans, run
	if len(run) == 0 {
		return
	}
	// A replica that fail-stops mid-invalidation needs none: its copies
	// died with it, which is exactly the post-state an invalidation
	// establishes. Live siblings' deletes still apply (partial doorbell
	// semantics), so the invariant — no spreadable copy holds a
	// superseded value — survives the crash.
	_ = rdma.CatchUnreachable(func() { m.runner.RunPlans(m.mc.strategy, run) })
	for _, pl := range plans {
		pl.c.dels.put(pl)
	}
}

// demoteLocked removes a LOCKED entry from the replicated set:
// invalidate every replica copy, then drop the entry (which releases the
// lock and wakes waiters into the unreplicated path).
func (m *MultiClient) demoteLocked(e *hotset.Entry) {
	m.invalidateReplicas(e)
	m.mc.hot.Remove(e)
	m.mc.Demotions++
}

// resyncAfterWrite is the registered unreplicated write paths' post-CAS
// re-check (callers still hold their BeginWrite registration): if an
// entry exists for a key that was just written (or deleted) OUTSIDE the
// entry lock — a promotion raced the write — repair it before the write
// returns. The repair re-reads the primary under the lock and pushes
// its CURRENT value to every replica (so concurrent repairs converge on
// the newest unreplicated CAS, whichever order their locks are granted
// in), clearing the warming state when it is the last registered writer;
// a primary miss means the key was deleted, so the entry is demoted
// instead. Stale entries are demoted rather than repaired, matching
// every other touch of a stale entry. On the common no-entry case this
// is a single map lookup.
func (m *MultiClient) resyncAfterWrite(key []byte) error {
	e := m.mc.hot.Lock(m.p, key)
	if e == nil {
		return nil
	}
	if m.stale(e) {
		m.demoteLocked(e)
		return nil
	}
	e.Writes++
	val, ok := m.readQuiet(e.Primary, key)
	if !ok {
		m.demoteLocked(e)
		return nil
	}
	if err := m.updateReplicas(e, key, val); err != nil {
		m.demoteLocked(e)
		return err
	}
	if m.mc.hot.InflightWrites(key) == 1 {
		// This repair is the last registered writer standing: the value
		// just pushed is the primary's current one and no unreplicated
		// CAS can land after it (any new writer sees the entry), so the
		// entry is safe to spread from.
		e.Warming = false
	}
	m.mc.hot.Unlock(e)
	return nil
}

// demoteKey demotes key's entry if one exists, waiting out any
// maintainer currently holding it. It is the read paths' lazy cleanup of
// stale entries and the reshard sweep's workhorse; on the (common) miss
// it is one map lookup.
func (m *MultiClient) demoteKey(key []byte) {
	if e := m.mc.hot.Lock(m.p, key); e != nil {
		m.demoteLocked(e)
	}
}

// demoteAll demotes every entry in the directory — the resharder's
// window-opening sweep, run before any table scanning. Entries locked
// by concurrent maintainers (including an in-flight promotion, which
// self-demotes once it observes the epoch change) are waited for via
// Lock; entries that vanish meanwhile are skipped (Lock returns nil).
func (m *MultiClient) demoteAll() {
	for _, k := range m.mc.hot.Keys() {
		m.demoteKey(k)
	}
}
