package core

import (
	"bytes"
	"sort"
	"sync/atomic"

	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/hotset"
	"ditto/internal/rdma"
	"ditto/internal/ring"
	"ditto/internal/sim"
)

// MultiCluster is a Ditto deployment over several memory nodes. The paper
// evaluates with one MN but notes Ditto "is compatible with memory pools
// with multiple MNs as long as the memory pool offers the required
// interfaces" (§5.1): keys are partitioned across MNs by a consistent-hash
// ring (internal/ring), each MN hosts its own table shard, heap, history
// counter and controller. Compute-side elasticity is unchanged; memory
// elasticity gains a second axis — grow/shrink one MN's heap, or add and
// remove whole MNs at runtime with AddNode and RemoveNode.
//
// A membership change starts a reshard: a background sim process walks the
// affected table shards with the same one-sided verbs clients use (READ
// the old copy, SET it on the new owner, delete behind) and migrates only
// the keys whose ring owner changed. While the reshard is in flight the
// old and new rings are both live: Gets that miss on the new owner are
// forwarded to the old owner, so no key ever disappears mid-migration,
// and the migration copy never overwrites a value written during the
// window (the copy is insert-if-absent, and it is undone with a precise
// CAS when the source copy was concurrently deleted or replaced).
//
// The repair discipline is detect-then-repair, not atomic, so two
// bounded staleness windows exist DURING a reshard and are resolved by
// its end: a Delete racing the migration of its own key can see the dead
// value transiently readable for a few verb round trips before the undo
// lands, and a write racing a migrated insert into a different slot can
// be shadowed by the stale copy until the resharder's final verification
// sweep drops it. Neither survives the reshard.
//
// Adaptive state is kept per MN: each MN's controller aggregates the
// weights for the keys it hosts. Access patterns are hash-split, so the
// per-MN mixes converge to the global mix.
type MultiCluster struct {
	Env *sim.Env

	perNode Options          // per-MN sizing, fixed at construction
	nodes   map[int]*Cluster // node ID → cluster
	order   []int            // active node IDs, in Node() index order
	nextID  int

	// route is the pool's routing state as ONE immutable snapshot behind
	// an atomic pointer (RCU-style): readers load it once and route a
	// whole decision against a consistent view — ring, forwarding window,
	// drain target and epoch can never tear apart — while membership
	// changes publish a fresh snapshot in one store (publishRoute). The
	// rings themselves are already immutable (ring.With/Without return
	// new rings), so a loaded snapshot stays valid forever; it just goes
	// stale, which the epoch comparison detects.
	route atomic.Pointer[routeSnapshot]
	done  *sim.Cond // broadcast when a reshard completes

	// strategy is THE execution-strategy setting of the pool (SetStrategy).
	strategy exec.Strategy

	// Reshards counts completed membership changes; MigratedKeys counts
	// objects moved between MNs by resharding; ReshardNs accumulates the
	// virtual time spent inside reshard windows.
	Reshards     int64
	MigratedKeys int64
	ReshardNs    int64

	// NodeCrashes counts fail-stopped nodes (CrashNode); ReshardRestarts
	// counts resharder incarnations respawned after a kill.
	NodeCrashes     int64
	ReshardRestarts int64

	// Hot-key replication (replica.go). hot is nil until
	// EnableHotKeyReplication is called; every knob and counter below is
	// inert while it is.
	hot *hotset.Set

	// HotThreshold is the hit frequency at which a key is promoted into
	// the replicated set; ReplicaFactor is R, the number of ring-successor
	// nodes a promoted key's value is copied to beyond its primary owner.
	// Both are set by EnableHotKeyReplication.
	HotThreshold  uint64
	ReplicaFactor int

	// reclaimLow/reclaimHigh remember EnableBackgroundReclaim's
	// watermarks so nodes provisioned later (AddNode) get a reclaimer of
	// their own.
	reclaimAll              bool
	reclaimLow, reclaimHigh int

	// Multi-tenancy (tenancy.go). Per-node quotas are provisioned like
	// CacheBytes: SetTenantQuota splits the pool-wide quota evenly across
	// the current members, and provision hands the same per-node slice to
	// nodes added later — AddNode grows the aggregate quota with the pool,
	// exactly as it grows aggregate cache bytes. Inert until
	// SetTenantQuota is called.
	tenantMode        bool
	tenantPerNode     [MaxTenants]int64
	overloadThreshold int64
	overloadWindowNs  int64

	// Promotions and Demotions count replicated-set membership changes;
	// SpreadReads counts reads served by a replica instead of the
	// primary — the work the replication layer moved off hot nodes.
	Promotions  int64
	Demotions   int64
	SpreadReads int64
}

// routeSnapshot is one immutable routing view. Everything a routing
// decision consults lives here, so loading the snapshot once gives an
// operation a consistent picture regardless of concurrent membership
// changes.
type routeSnapshot struct {
	hashRing *ring.Ring // current (target) routing ring
	oldRing  *ring.Ring // pre-reshard ring; non-nil while migrating
	draining int        // node being drained by RemoveNode (-1 otherwise)
	epoch    uint64     // bumped on every ring change (clients re-route)
}

// owner returns the owner of key under this snapshot's routing ring,
// plus the old owner to forward to (-1 when no forwarding window
// applies).
func (s *routeSnapshot) owner(key []byte) (cur, old int) {
	pt := ring.Point(hashtable.KeyHash(key))
	cur, old = s.hashRing.Owner(pt), -1
	if prev := s.oldRing; prev != nil {
		if o := prev.Owner(pt); o != cur {
			old = o
		}
	}
	return cur, old
}

// snap loads the current routing snapshot.
func (mc *MultiCluster) snap() *routeSnapshot { return mc.route.Load() }

// publishRoute installs a new routing snapshot — THE atomic switch every
// membership change funnels through. The caller finishes all membership
// bookkeeping (mc.nodes, mc.order) first, without yielding, so the
// membership matches the published rings; the epoch advances with every
// publish, which is what in-flight operations' staleness checks key on.
func (mc *MultiCluster) publishRoute(hashRing, oldRing *ring.Ring, draining int) {
	var epoch uint64
	if prev := mc.route.Load(); prev != nil {
		epoch = prev.epoch + 1
	}
	mc.route.Store(&routeSnapshot{
		hashRing: hashRing,
		oldRing:  oldRing,
		draining: draining,
		epoch:    epoch,
	})
}

// NewMultiCluster creates n memory nodes, each provisioned with opts
// scaled down by n (objects and bytes split evenly). Nodes added later
// with AddNode get the same per-node provisioning.
func NewMultiCluster(env *sim.Env, n int, opts Options) *MultiCluster {
	if n < 1 {
		//dittolint:allow typederr (config validation at pool construction)
		panic("core: need at least one memory node")
	}
	per := opts
	per.ExpectedObjects = (opts.ExpectedObjects + n - 1) / n
	per.CacheBytes = (opts.CacheBytes + n - 1) / n
	if per.MaxCacheBytes > 0 {
		per.MaxCacheBytes = (opts.MaxCacheBytes + n - 1) / n
	}
	mc := &MultiCluster{
		Env:      env,
		perNode:  per,
		nodes:    make(map[int]*Cluster),
		done:     sim.NewCond(env),
		strategy: exec.Doorbell,
	}
	h := ring.New(0)
	for i := 0; i < n; i++ {
		id := mc.provision()
		h = h.With(id)
	}
	mc.publishRoute(h, nil, -1)
	return mc
}

// SetStrategy selects how every multi-plan batch in the pool executes:
// the resharder's table scan and migrations, the replica fan-outs (copy
// materialization, write-through updates, invalidations) and each node's
// eviction batches (Cluster.Strategy). exec.Doorbell (the default) posts
// each stage across the batch as one doorbell per endpoint; exec.Serial
// runs one plan at a time, one verb group per round trip — the
// paper-faithful reference the equivalence tests and the bench comparison
// rows run against. Results are identical: a plan that hits a complication
// reaches the same outcome and is re-run by its driver either way. Takes
// effect immediately, pool-wide, and on nodes added later.
func (mc *MultiCluster) SetStrategy(s exec.Strategy) {
	mc.strategy = s
	for _, id := range mc.order {
		mc.nodes[id].Strategy = s
	}
}

// provision creates one MN and registers it, without touching the routing
// ring — the caller decides whether the join is immediate (construction)
// or via a reshard (AddNode). Nodes inherit the pool's strategy, its
// background reclaimer (when enabled) and the hot-key eviction hook, so a
// node added mid-run behaves like its peers.
func (mc *MultiCluster) provision() int {
	id := mc.nextID
	mc.nextID++
	cl := NewCluster(mc.Env, mc.perNode)
	cl.Strategy = mc.strategy
	if mc.reclaimAll {
		cl.EnableBackgroundReclaim(mc.reclaimLow, mc.reclaimHigh)
	}
	if mc.hot != nil {
		mc.installEvictHook(id, cl)
	}
	if mc.tenantMode {
		for t, q := range mc.tenantPerNode {
			if q > 0 {
				cl.SetTenantQuota(TenantID(t), q)
			}
		}
	}
	if mc.overloadThreshold > 0 {
		cl.EnableOverloadControl(mc.overloadThreshold, mc.overloadWindowNs)
	}
	mc.nodes[id] = cl
	mc.order = append(mc.order, id)
	return id
}

// EnableBackgroundReclaim starts a proactive reclaimer on every memory
// node (see Cluster.EnableBackgroundReclaim); nodes added later by
// AddNode get one too.
// low/high <= 0 pick the per-node defaults.
func (mc *MultiCluster) EnableBackgroundReclaim(low, high int) {
	mc.reclaimAll = true
	mc.reclaimLow, mc.reclaimHigh = low, high
	for _, id := range mc.order {
		mc.nodes[id].EnableBackgroundReclaim(low, high)
	}
}

// NumNodes returns the memory-node count (a draining node counts until
// its removal completes).
func (mc *MultiCluster) NumNodes() int { return len(mc.order) }

// Node returns the i-th memory node's cluster view (for resource knobs and
// stats). Indices shift when RemoveNode completes; NodeID gives the stable
// handle.
func (mc *MultiCluster) Node(i int) *Cluster { return mc.nodes[mc.order[i]] }

// NodeID returns the i-th node's stable ID (as returned by AddNode and
// accepted by RemoveNode).
func (mc *MultiCluster) NodeID(i int) int { return mc.order[i] }

// Resharding reports whether a membership change is still migrating keys.
func (mc *MultiCluster) Resharding() bool { return mc.snap().oldRing != nil }

// OwnerOf returns the node ID that currently routes key — the owner
// under the live ring (the NEW ring during a reshard). Chaos harnesses
// use it to partition keys into "owned by the crashed node" vs
// survivors when asserting which keys may legally disappear.
func (mc *MultiCluster) OwnerOf(key []byte) int {
	return mc.snap().hashRing.Owner(ring.Point(hashtable.KeyHash(key)))
}

// WaitReshard blocks p until no reshard is in flight.
func (mc *MultiCluster) WaitReshard(p *sim.Proc) {
	for mc.snap().oldRing != nil {
		mc.done.Wait(p)
	}
}

// AddNode provisions a new memory node, joins it to the ring, and starts
// migrating the keys it now owns (~1/n of the key space) in a background
// sim process. It returns the new node's ID immediately; use WaitReshard
// to observe completion. Only one membership change may be in flight.
func (mc *MultiCluster) AddNode() int {
	if mc.snap().oldRing != nil {
		//dittolint:allow typederr (API-misuse guard: membership changes are declared one at a time)
		panic("core: AddNode during an in-flight reshard (WaitReshard first)")
	}
	sources := append([]int(nil), mc.order...) // keys move only from old MNs
	id := mc.provision()
	mc.startReshard(mc.snap().hashRing.With(id), sources, -1)
	return id
}

// RemoveNode drains node id: its keys migrate to the surviving owners in a
// background sim process, Gets keep being served from the draining node
// until its copies move, and the node leaves the pool when the drain
// completes. Only one membership change may be in flight.
func (mc *MultiCluster) RemoveNode(id int) {
	if mc.snap().oldRing != nil {
		//dittolint:allow typederr (API-misuse guard: membership changes are declared one at a time)
		panic("core: RemoveNode during an in-flight reshard (WaitReshard first)")
	}
	if _, ok := mc.nodes[id]; !ok {
		//dittolint:allow typederr (API-misuse guard: the harness names nodes it created)
		panic("core: RemoveNode of unknown node")
	}
	if len(mc.order) == 1 {
		//dittolint:allow typederr (API-misuse guard: an empty pool has no semantics)
		panic("core: cannot remove the last memory node")
	}
	mc.startReshard(mc.snap().hashRing.Without(id), []int{id}, id)
}

// CrashNode fail-stops node id: every copy it hosted is lost, in-flight
// verbs against it fail with rdma.NodeUnreachableError after a timeout,
// and the pool reconfigures immediately — the node leaves both routing
// rings and the membership in one atomic step (no verbs between them),
// so clients observe either the old pool or the new one, never a
// half-removed node. Unlike RemoveNode there is no drain: the crashed
// node's keys become misses and re-enter the cache through the normal
// miss path on their new owners.
//
// The consistent-hash ring's Without reassigns ONLY the crashed node's
// ranges, so every surviving key keeps its owner — the basis of the
// chaos suite's "no key lost outside the crashed node's ownership"
// invariant. Crashing is legal mid-reshard (the resharder catches the
// unreachable error and drops the node from its remaining work) but the
// last node cannot crash — an empty pool has no failure semantics worth
// modeling.
func (mc *MultiCluster) CrashNode(id int) {
	cl, ok := mc.nodes[id]
	if !ok {
		//dittolint:allow typederr (API-misuse guard: the harness names nodes it created)
		panic("core: CrashNode of unknown node")
	}
	if len(mc.order) == 1 {
		//dittolint:allow typederr (API-misuse guard: an empty pool has no failure semantics)
		panic("core: cannot crash the last memory node")
	}
	cl.Crash()
	s := mc.snap()
	h := s.hashRing.Without(id)
	old := s.oldRing
	if old != nil {
		old = old.Without(id)
	}
	draining := s.draining
	if draining == id {
		draining = -1
	}
	mc.dropNode(id)
	// One publish switches both rings, the drain target and the
	// membership together (no verbs since Crash), so clients observe the
	// old pool or the new one, never a half-removed node.
	mc.publishRoute(h, old, draining)
	mc.NodeCrashes++
	if mc.hot != nil {
		// Entry locks held by procs that died with the node (or by the
		// killed reclaimer) must be stealable; wake the parked waiters.
		mc.hot.CrashWake()
	}
}

// dropNode removes node id from the membership bookkeeping (a no-op for
// an unknown id). The caller publishes the route that goes with it
// before yielding.
func (mc *MultiCluster) dropNode(id int) {
	delete(mc.nodes, id)
	for i, nid := range mc.order {
		if nid == id {
			mc.order = append(mc.order[:i], mc.order[i+1:]...)
			return
		}
	}
}

// maxReshardPasses bounds the straggler sweeps of one reshard. A pass that
// migrates nothing ends the reshard; extra passes catch keys written to an
// old owner by clients whose routing decision raced the ring switch.
const maxReshardPasses = 8

// reshardState carries one membership change's progress across resharder
// incarnations. Fault injection may kill the resharder mid-migration;
// the OnCrash-respawned replacement shares this state so the inserts
// list survives (the verification sweep must cover copies published
// before the crash) while the scan passes simply restart — migration is
// insert-if-absent, so re-scanning is idempotent.
type reshardState struct {
	sources   []int
	dropID    int
	inserts   []migratedCopy
	start     int64
	restarts  int64
	finalized bool // ring/membership switch done; only cleanup remains
}

// migratedCopy remembers one insert the resharder published, so the
// end-of-reshard verification sweep can find and resolve duplicates.
type migratedCopy struct {
	// dstID names the destination NODE, not a client handle: the sweep
	// may run in a respawned resharder incarnation whose predecessor
	// (and its clients, bound to the dead process) were killed — it must
	// resolve a live client of its own at sweep time.
	dstID  int
	key    []byte
	addr   uint64
	atom   hashtable.AtomicField
	tenant TenantID // owning tenant, for usage credit if the copy is dropped
}

// startReshard switches the routing ring to newRing and spawns the
// resharder process that migrates every key whose owner changed, scanning
// the given source nodes. dropID >= 0 names a node to retire when the
// migration completes (RemoveNode).
func (mc *MultiCluster) startReshard(newRing *ring.Ring, sources []int, dropID int) {
	mc.publishRoute(newRing, mc.snap().hashRing, dropID)
	mc.spawnResharder(&reshardState{
		sources: sources,
		dropID:  dropID,
		start:   mc.Env.Now(),
	})
}

// spawnResharder runs one resharder incarnation over st. If the process
// is killed by fault injection, its OnCrash hook respawns a replacement
// sharing st, so the membership change always completes; every verb
// sequence against a node that fail-stops mid-reshard is caught and the
// node is simply dropped from the remaining work (CrashNode removes it
// from the pool, so the next pass no longer sees it).
func (mc *MultiCluster) spawnResharder(st *reshardState) {
	mc.Env.Go("resharder", func(p *sim.Proc) {
		p.OnCrash(func() {
			st.restarts++
			mc.ReshardRestarts++
			mc.spawnResharder(st)
			if mc.hot != nil {
				// The dead incarnation may hold hot-entry locks; wake the
				// parked waiters so they observe the owner died and steal.
				mc.hot.CrashWake()
			}
		})
		m := mc.NewClient(p)
		if !st.finalized {
			mc.runReshard(p, m, st)
		}
		// The resharder is transient: return its free lists (the space of
		// every source copy it deleted) to the surviving controllers, or
		// that heap space would be stranded when this client goes away.
		for _, id := range sortedNodeIDs(m.clients) {
			cl, alive := mc.nodes[id]
			if !alive || cl.dead {
				continue
			}
			c := m.clients[id]
			_ = rdma.CatchUnreachable(func() { c.surrenderFreeBlocks() })
		}
		m.Close()
		mc.done.Broadcast()
	})
}

// runReshard performs the migration passes and the ring/membership
// switch for one membership change. Separated from spawnResharder so a
// respawned incarnation that finds st.finalized already set skips
// straight to cleanup (a kill can land between the switch and the
// free-list surrender).
func (mc *MultiCluster) runReshard(p *sim.Proc, m *MultiClient, st *reshardState) {
	// Dissolve the hot-key replica sets BEFORE scanning anything: the
	// migrate plan's insert-if-absent treats any existing destination
	// copy as "newer by construction", which replica copies violate —
	// a scanned replica copy migrated into a key's new owner would
	// make the real primary copy look like a duplicate (its removal
	// would then be a lost write), and on RemoveNode a replica copy
	// promoted to primary-by-migration would afterwards be deleted by
	// its own entry's demotion. Demoting everything first (promotion
	// is refused while the window is open, and an in-flight promotion
	// self-demotes on the epoch change, so the directory stays empty)
	// means the scan only ever sees single copies.
	if mc.hot != nil {
		for try := 0; try < 4; try++ {
			if rdma.CatchUnreachable(func() { m.demoteAll() }) == nil {
				break
			}
			// A node fail-stopped mid-demote; its copies died with it, and
			// demotion is idempotent, so retry over the survivors.
		}
	}
	for pass := 0; pass < maxReshardPasses; pass++ {
		pending := int64(0)
		for _, id := range st.sources {
			cl, ok := mc.nodes[id]
			if !ok || cl.dead {
				continue // crashed out of the pool; nothing left to scan
			}
			src := id
			if rdma.CatchUnreachable(func() {
				pending += mc.migrateNode(m, src, &st.inserts)
			}) != nil {
				// A node (the source, or a migration destination) fail-
				// stopped mid-scan. Count the interrupted scan as pending
				// work: by the next pass CrashNode has removed the node, so
				// either the source is skipped above or the keys re-route
				// to a live owner.
				pending++
			}
		}
		if pending == 0 && pass >= 1 {
			break
		}
	}
	// A draining node must be completely empty before it can leave the
	// pool — a key left behind would become a permanent miss. This
	// converges unconditionally: no Set routes to the drained node (it
	// is absent from the current ring), so its population strictly
	// shrinks. These extra passes double as the insert-free separation
	// the verification sweep below relies on.
	if st.dropID >= 0 {
		for {
			cl, ok := mc.nodes[st.dropID]
			if !ok || cl.dead {
				break // the draining node crashed; its copies died with it
			}
			var moved int64
			if rdma.CatchUnreachable(func() {
				moved = mc.migrateNode(m, st.dropID, &st.inserts)
			}) != nil {
				continue // re-check liveness and retry over survivors
			}
			if moved == 0 {
				break
			}
		}
	}
	// Final duplicate verification. The migrate plan's immediate
	// post-publish sweep has a
	// TOCTOU hole: a client Set that read the buckets before our CAS
	// landed can publish the same key into a DIFFERENT slot just after
	// the sweep, leaving two live copies with ours (stale) possibly
	// first in Get's scan order. By now at least one full scan pass
	// separates us from every insert, and a Set attempt's read-to-CAS
	// span is a handful of verbs — any Set still in flight re-read the
	// buckets after our copy was visible and updated it in place. So a
	// duplicate found here is a completed racing write: drop our copy.
	// A destination that crashed since the insert lost both copies with
	// the node — nothing to resolve there.
	for _, ins := range st.inserts {
		dst := m.clientFor(ins.dstID)
		if dst == nil || dst.cl.dead {
			continue // the destination crashed: both copies died with it
		}
		ins := ins
		_ = rdma.CatchUnreachable(func() {
			if dst.hasOtherCopy(ins.key, ins.addr) {
				dst.dropMigrated(ins.addr, ins.atom, ins.tenant)
			}
		})
	}
	// Membership bookkeeping first, then ONE snapshot publish (no verbs
	// between these steps), so clients observe the window closing and
	// the membership change atomically.
	mc.Reshards++
	mc.ReshardNs += p.Now() - st.start
	if st.dropID >= 0 {
		mc.dropNode(st.dropID) // a no-op when the draining node crashed out already
	}
	mc.publishRoute(mc.snap().hashRing, nil, -1)
	st.finalized = true
}

// reshardScanBuckets is how many table buckets one scan doorbell covers
// under the Doorbell strategy, and reshardBatch how many migrations run
// as one lock-step plan batch (each plan spans the source and one
// destination endpoint).
const (
	reshardScanBuckets = 16
	reshardBatch       = 32
)

// migrateNode walks one source MN's table shard and moves every live
// object whose ring owner changed: READ the object, insert-if-absent on
// the new owner (carrying its hotness metadata), then delete the source
// copy behind it with a CAS that verifies the copy did not change while
// in flight — the migratePlan of plan.go. If that CAS fails — the key was
// concurrently deleted, evicted, or replaced — the fresh insert is undone
// with a precise CAS so a dead value can never resurface. Successful
// inserts are appended to inserts for the end-of-reshard duplicate
// verification. Returns the amount of pending work observed: keys
// actually moved plus source slots that changed mid-copy (a failed source
// CAS may mean a straggler write replaced the copy, so another pass must
// re-visit it).
//
// Under exec.Doorbell the walk is pipelined: one doorbell reads
// reshardScanBuckets buckets, one reads every live object behind them,
// and the owner-changed keys migrate as lock-step batches of migrate
// plans — bucket READs, object WRITEs, publishing CASes and source delete
// CASes each amortize their RTT across the batch. Any plan that hits a
// race or a full bucket is demoted to the serial per-slot path, so the
// two strategies produce identical results.
func (mc *MultiCluster) migrateNode(m *MultiClient, srcID int, inserts *[]migratedCopy) int64 {
	src := m.clientFor(srcID)
	cl := mc.nodes[srcID]
	if src == nil || cl == nil {
		return 0
	}
	doorbell := mc.strategy == exec.Doorbell
	step := 1
	if doorbell {
		step = reshardScanBuckets
	}
	pending := int64(0)
	for b0 := 0; b0 < cl.Layout.Buckets; b0 += step {
		n := step
		if rem := cl.Layout.Buckets - b0; n > rem {
			n = rem
		}
		var chunk [][]hashtable.Slot
		if doorbell {
			bs := make([]int, n)
			for i := range bs {
				bs[i] = b0 + i
			}
			chunk = src.ht.ReadBuckets(bs)
		} else {
			chunk = [][]hashtable.Slot{src.ht.ReadBucket(b0)}
		}
		var live []hashtable.Slot
		for _, slots := range chunk {
			for _, s := range slots {
				if s.Atomic.IsEmpty() || s.Atomic.IsHistory() {
					continue
				}
				live = append(live, s)
			}
		}
		var objs [][]byte
		if doorbell {
			objs = src.readObjects(live)
		} else {
			objs = make([][]byte, len(live))
			for i, s := range live {
				objs[i] = src.readObject(s)
			}
		}
		// Collect the slots whose ring owner changed. Within one batch a
		// key may only appear once: two same-key plans in flight together
		// could each observe the other's fresh insert in its duplicate
		// sweep and both yield, losing the key. Extra copies (possible
		// transiently during a window) count as pending and are re-visited
		// by the next pass, after the first copy settled.
		var seen map[string]bool
		if doorbell {
			seen = make(map[string]bool)
		}
		type migItem struct {
			s     hashtable.Slot
			dec   decodedObject
			owner int
		}
		var items []migItem
		for i, s := range live {
			dec := decodeObject(objs[i])
			if !dec.ok {
				continue // reused memory behind a stale slot snapshot
			}
			owner := mc.snap().hashRing.Owner(ring.Point(hashtable.KeyHash(dec.key)))
			if owner == srcID {
				continue
			}
			if doorbell {
				if seen[string(dec.key)] {
					pending++
					continue
				}
				seen[string(dec.key)] = true
			}
			items = append(items, migItem{s: s, dec: dec, owner: owner})
		}
		if !doorbell {
			for _, it := range items {
				pending += mc.migrateSlot(src, m.clientFor(it.owner), it.owner, it.s, it.dec, inserts)
			}
			continue
		}
		for lo := 0; lo < len(items); lo += reshardBatch {
			hi := lo + reshardBatch
			if hi > len(items) {
				hi = len(items)
			}
			batch := items[lo:hi]
			plans := make([]*migratePlan, len(batch))
			run := make([]exec.Plan, len(batch))
			for j, it := range batch {
				plans[j] = newMigratePlan(src, m.clientFor(it.owner), it.s, it.dec)
				run[j] = plans[j]
			}
			// A node that fail-stops under the batch takes only the plans
			// that span it (the runner finishes the rest before it raises):
			// the inserts that did publish are still recorded for the
			// verification sweep, and the failure goes on to the pass loop.
			down := rdma.CatchUnreachable(func() { m.runner.Doorbell.Run(run) })
			for j, pl := range plans {
				it := batch[j]
				switch pl.outcome {
				case migPending:
					// Dropped where it stood; the next pass revisits the slot.
					// An insert it had published (its source died under the
					// delete behind it) stands, and the sweep must cover it.
					if pl.inserted {
						mc.noteMoved(inserts, it.owner, pl)
					}
					pending++
				case migMoved:
					mc.noteMoved(inserts, it.owner, pl)
					pending++
				case migSkipped:
					// Destination already newer; source copy GC'd in-plan.
				default:
					if down != nil {
						pending++ // not now: a retry that raised would cut this bookkeeping short
						break
					}
					// Complication (lost CAS, source changed):
					// demote this slot to the serial retry path, which
					// re-reads and redoes the copy from a fresh snapshot.
					pending += mc.migrateSlot(src, m.clientFor(it.owner), it.owner, it.s, it.dec, inserts)
				}
			}
			raise(down)
		}
	}
	return pending
}

// noteMoved counts one migrated key and records its insert for the
// end-of-reshard verification sweep — only now that the insert SURVIVED:
// an entry for an undone insert would let the sweep's precise CAS fire on
// an ABA reuse of the slot (same fingerprint, same size class, recycled
// block address) and delete an unrelated live object.
func (mc *MultiCluster) noteMoved(inserts *[]migratedCopy, dstID int, pl *migratePlan) {
	*inserts = append(*inserts, migratedCopy{
		dstID: dstID, key: pl.ins.key, addr: pl.ins.slotAddr, atom: pl.ins.want,
		tenant: pl.ins.tenant,
	})
	mc.MigratedKeys++
}

// migrateSlotRetries bounds the per-slot redo loop when the source copy
// keeps changing under the copy (straggler writes are finite — only
// operations in flight at the ring switch route to an old owner).
const migrateSlotRetries = 8

// migrateSlot moves one live object from src to dst with serially-run
// migrate plans, retrying in place when the source copy is replaced
// mid-copy so a straggler write cannot be stranded on the old owner.
// Returns 1 when a copy moved (or retries were exhausted under sustained
// churn — pending work the pass loop revisits), 0 when the key turned out
// to be gone or already superseded on the destination.
func (mc *MultiCluster) migrateSlot(src, dst *Client, dstID int, s hashtable.Slot, dec decodedObject,
	inserts *[]migratedCopy) int64 {

	for try := 0; try < migrateSlotRetries; try++ {
		pl := newMigratePlan(src, dst, s, dec)
		src.runner.Serial.Run(pl)
		switch pl.outcome {
		case migMoved:
			mc.noteMoved(inserts, dstID, pl)
			return 1
		case migSkipped:
			// The destination already held a newer client-written copy:
			// the source removal was garbage collection, not a migration,
			// and must not inflate the stat.
			return 0
		case migFallback:
			// The destination's publish CAS lost a race: re-attempt with a
			// fresh snapshot (presence is re-checked).
		case migRetry:
			// The source slot changed while we copied it (the plan already
			// took back any stale insert). Re-read the slot: if it still
			// holds the same key (a straggler write replaced the value),
			// redo the copy with the fresh value; otherwise the key was
			// deleted, evicted or re-slotted and there is nothing to move.
			s2 := src.ht.ReadSlot(s.Addr)
			if s2.Atomic.IsEmpty() || s2.Atomic.IsHistory() || s2.Atomic.FP() != s.Atomic.FP() {
				return 0
			}
			obj := src.readObject(s2)
			dec2 := decodeObject(obj)
			if !dec2.ok || !bytes.Equal(dec2.key, dec.key) {
				return 0
			}
			s, dec = s2, dec2
		}
	}
	// Retries exhausted under sustained churn: report pending work so the
	// pass loop revisits this slot.
	return 1
}

// stayingNodes returns the active node IDs excluding one being drained —
// byte-budget changes granted to a node about to leave the pool would
// evaporate with it.
func (mc *MultiCluster) stayingNodes() []int {
	ids := make([]int, 0, len(mc.order))
	draining := mc.snap().draining
	for _, id := range mc.order {
		if id != draining {
			ids = append(ids, id)
		}
	}
	return ids
}

// GrowCache grows every surviving MN's heap by an equal share — memory
// elasticity across the pool.
func (mc *MultiCluster) GrowCache(bytes int) {
	ids := mc.stayingNodes()
	per := (bytes + len(ids) - 1) / len(ids)
	for _, id := range ids {
		mc.nodes[id].GrowCache(per)
	}
}

// ShrinkCache lowers every surviving MN's heap budget by an equal share —
// the pool-wide counterpart of GrowCache (see Cluster.ShrinkCache).
func (mc *MultiCluster) ShrinkCache(bytes int) {
	ids := mc.stayingNodes()
	per := (bytes + len(ids) - 1) / len(ids)
	for _, id := range ids {
		mc.nodes[id].ShrinkCache(per)
	}
}

// MultiClient routes operations to the MN owning each key. Every
// operation runs through ONE routed pipeline per kind — read, write,
// remove — and a single-key operation is a batch of one through the same
// code, traversed under exec.Serial (the §4.1 verb budget) where the
// batched forms traverse under exec.Doorbell. Each pipeline has the same
// stages:
//
//	snapshot the route
//	→ replicated keys (replica.go): reads spread to a replica; writes
//	  lock the entry and write through, or register as unreplicated
//	→ group key indices by owning node (client-owned scratch)
//	→ run the groups through the batched driver (fan, batch.go): under
//	  exec.Doorbell every owner's plans are ONE doorbell pipeline on this
//	  client's runner, so the batch costs its slowest owner's rounds
//	→ serve the forwarding window of a reshard in flight
//	→ re-check the epoch; re-route whatever a ring switch left stale
//	→ account silent misses / repair raced promotions and unregister
//
// During a reshard the window stage keeps every key observable: reads
// that miss on a key's new owner retry on its old owner, writes go to the
// new owner only and clear the old copy behind them, removes clear the
// old copy before the new one.
type MultiClient struct {
	mc      *MultiCluster
	p       *sim.Proc
	clients map[int]*Client
	tenant  TenantID    // bound tenant, propagated to every per-node client
	promo   []promoCand // hot-key promotion candidates queued by the hit hook

	// runner drives plans that span several per-node clients: the routed
	// batches (fan: every owner's group of a pass in one Doorbell.Run),
	// replica fan-outs and the resharder's migration batches. fanSets,
	// fanDels and fanRun are the replica fan-outs' in-flight plans (from the
	// per-node clients' pools) — one set suffices, a fan-out never nests
	// another, nor does a routed batch.
	runner  exec.Runner
	fan     fan
	fanSets []*setPlan
	fanDels []*delPlan
	fanRun  []exec.Plan

	// The one-element batch behind Get/Set/TrySet/Delete, and the free
	// list of pipeline scratch, so single-key operations allocate nothing
	// of their own.
	key1 [1][]byte
	kv1  [1]KV
	val1 [1][]byte
	ok1  [1]bool
	free []*routeScratch
}

// promoCand is one queued hot-key promotion candidate: the key plus the
// owning tenant observed at the qualifying hit, so the promotion can
// stamp the hotset entry and the quota gate can veto replication for
// over-quota tenants.
type promoCand struct {
	key    []byte
	tenant TenantID
}

// routeScratch is one pipeline run's working memory. Runs nest — a
// replicated key's primary write is a routed write of one inside the
// batch's own run — so each run takes a scratch off the client's free
// list and returns it; at steady state nothing is allocated.
type routeScratch struct {
	cur, old []int // key index → owner, and old owner to forward to (-1: no window), under the attempt's snapshot
	// Key-index lists, each with room for every key: those still to
	// route, an attempt's keys outside / inside a forwarding window, and
	// the misses no client counted (or groups a ring switch left stale).
	pend, stable, window, silent []int
	groups                       [][]int  // node ID → key indices of the fan-out being run
	keys                         [][]byte // a write's forwarded pairs' keys, for the delete pass behind it
}

// scratch takes a routeScratch sized for a batch of n keys.
func (m *MultiClient) scratch(n int) *routeScratch {
	var sc *routeScratch
	if k := len(m.free); k > 0 {
		sc, m.free = m.free[k-1], m.free[:k-1]
	} else {
		sc = &routeScratch{}
	}
	if cap(sc.cur) < n {
		sc.cur, sc.old = make([]int, n), make([]int, n)
		sc.pend, sc.stable = make([]int, 0, n), make([]int, 0, n)
		sc.window, sc.silent = make([]int, 0, n), make([]int, 0, n)
		sc.keys = make([][]byte, n)
	}
	sc.cur, sc.old, sc.keys = sc.cur[:n], sc.old[:n], sc.keys[:n]
	return sc
}

func (m *MultiClient) release(sc *routeScratch) { m.free = append(m.free, sc) }

// fanout buckets idxs by node[i] into sc.groups and aims the client's
// batched driver at them: one group per node with a key, in ascending
// node ID order — THE deterministic fan-out order of every pipeline — each
// with its per-node client (nil when the node has left the pool). epoch is
// the routing epoch node was derived under. idxs is fully consumed before
// fanout returns, so callers may reuse its storage.
func (m *MultiClient) fanout(sc *routeScratch, idxs, node []int, epoch uint64) *fan {
	for id := range sc.groups {
		sc.groups[id] = sc.groups[id][:0]
	}
	for _, i := range idxs {
		id := node[i]
		for len(sc.groups) <= id {
			sc.groups = append(sc.groups, nil)
		}
		sc.groups[id] = append(sc.groups[id], i)
	}
	f := &m.fan
	f.epoch, f.err, f.groups = epoch, nil, f.groups[:0]
	for id, g := range sc.groups {
		if len(g) > 0 {
			f.groups = append(f.groups, group{c: m.clientFor(id), node: id, idxs: g, todo: g})
		}
	}
	return f
}

// NewClient connects process p to every current memory node; connections
// to nodes added later are opened lazily on first use. Enable hot-key
// replication (EnableHotKeyReplication) before creating clients: the
// promotion signal is installed at connection time.
func (mc *MultiCluster) NewClient(p *sim.Proc) *MultiClient {
	m := &MultiClient{mc: mc, p: p, clients: make(map[int]*Client)}
	m.fan = fan{p: p, db: &m.runner.Doorbell, mc: mc}
	for _, id := range mc.order {
		m.clients[id] = m.connect(mc.nodes[id])
	}
	return m
}

// connect opens one per-MN client, wiring the hot-key promotion hook
// when replication is enabled.
func (m *MultiClient) connect(cl *Cluster) *Client {
	c := cl.NewClient(m.p)
	if m.mc.hot != nil {
		c.onHit = m.noteHotCandidate
	}
	if m.tenant != DefaultTenant {
		c.BindTenant(m.tenant)
	}
	return c
}

// clientFor returns the per-MN client for node id, connecting lazily. It
// returns nil when the node has left the pool.
func (m *MultiClient) clientFor(id int) *Client {
	if c, ok := m.clients[id]; ok {
		return c
	}
	cl, ok := m.mc.nodes[id]
	if !ok {
		return nil
	}
	c := m.connect(cl)
	m.clients[id] = c
	return c
}

// routeRetries bounds a read's re-routing when a reshard switches the
// ring in the middle of it.
const routeRetries = 4

// owner returns the current owner of key under the routing ring, plus the
// old owner to forward to (-1 when no forwarding window applies).
func (m *MultiClient) owner(key []byte) (cur, old int) {
	return m.mc.snap().owner(key)
}

// ------------------------------------------------------------------ read ----

// Get fetches key from its owning MN. During a reshard a miss on the new
// owner is retried on the old owner, so a key in flight between MNs is
// always observable from one of the two. When hot-key replication is on,
// a promoted key's read may instead be served by one of its replicas; a
// replica miss falls back to the routed path, so spreading never turns a
// present key into a miss.
func (m *MultiClient) Get(key []byte) ([]byte, bool) {
	m.key1[0], m.val1[0], m.ok1[0] = key, nil, false
	m.read(m.key1[:], m.val1[:], m.ok1[:], exec.Serial)
	return m.val1[0], m.ok1[0]
}

// MGet fetches a batch of keys: each key routes to its ring owner, and
// the owners serve their groups as ONE doorbell-batched MGet — one doorbell
// per owner per round, the rounds shared.
func (m *MultiClient) MGet(keys [][]byte) ([][]byte, []bool) {
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	m.read(keys, vals, oks, exec.Doorbell)
	return vals, oks
}

// read is THE routed read pipeline: it fills vals[i]/oks[i] for every
// key. Replicated keys spread to their rotation-chosen replicas first
// (spread, replica.go); whatever misses there — plus every unreplicated
// key — routes to its ring owner. A key that stays missing counts
// exactly one logical miss, on some surviving client.
func (m *MultiClient) read(keys, vals [][]byte, oks []bool, strat exec.Strategy) {
	if len(keys) == 0 {
		return
	}
	sc := m.scratch(len(keys))
	pend := sc.pend[:0]
	if m.mc.hot != nil {
		m.drainPromotions()
		pend = m.spread(sc, pend, keys, vals, oks, strat)
	} else {
		for i := range keys {
			pend = append(pend, i)
		}
	}
	for attempt := 0; ; attempt++ {
		snap := m.mc.snap()
		stable, window := sc.stable[:0], sc.window[:0]
		for _, i := range pend {
			sc.cur[i], sc.old[i] = snap.owner(keys[i])
			if sc.old[i] < 0 {
				stable = append(stable, i)
			} else {
				window = append(window, i)
			}
		}
		// Keys outside any forwarding window: one counting read per
		// owner. silent collects the misses no client counted.
		silent := m.fanout(sc, stable, sc.cur, snap.epoch).mget(strat, keys, vals, oks, false, sc.silent[:0])
		// Forwarding window: probe with stat-silent reads so a key still
		// sitting on its old owner does not record a phantom miss on the
		// new owner for every forwarded hit — new owner, old owner, then
		// the new owner once more. The key may migrate old→new between
		// the first two probes; after a migration it stays put, so the
		// one re-probe settles that race without amplifying genuine
		// misses.
		for _, node := range [3][]int{sc.cur, sc.old, sc.cur} {
			if len(window) == 0 {
				break
			}
			window = m.fanout(sc, window, node, snap.epoch).mget(strat, keys, vals, oks, true, window[:0])
		}
		silent = append(silent, window...)
		if m.mc.snap().epoch == snap.epoch || attempt >= routeRetries {
			// Count the one logical miss of every key whose probes were
			// silent or whose owner could not run it, so
			// Stats().HitRate() cannot overstate the hit rate during a
			// shrink.
			for _, i := range silent {
				m.countMiss(sc.cur[i], sc.old[i])
			}
			break
		}
		// A ring switch mid-operation means we probed stale owners:
		// re-route every key still missing, in key order.
		next := pend[:0]
		for _, i := range pend {
			if !oks[i] {
				next = append(next, i)
			}
		}
		pend = next
		sort.Ints(pend)
	}
	m.release(sc)
}

// countMiss records one logical Get miss on a surviving client: the
// key's current owner when connected, else its old owner, else any node
// still in the pool. A Get that returns false must always increment
// Gets and Misses on SOME client — dropping it (as happened when the
// forwarding window closed around a just-removed node) silently inflated
// the aggregate hit rate. The miss also counts toward that node's
// ServedReads, keeping the per-node load ledger consistent with the
// non-windowed miss path.
func (m *MultiClient) countMiss(cur, old int) {
	c := m.clientFor(cur)
	if c == nil && old >= 0 {
		c = m.clientFor(old)
	}
	if c == nil {
		for _, id := range m.mc.order {
			if c = m.clientFor(id); c != nil {
				break
			}
		}
	}
	if c != nil {
		c.Stats.Gets++
		c.Stats.Misses++
		c.served.Inc()
	}
}

// ----------------------------------------------------------------- write ----

// Set stores key on its owning MN. When the key is replicated, the write
// goes through the primary first and then updates every replica before
// returning (writeThrough in replica.go), all under the key's entry
// lock — so after any completed Set, every copy a spread read can reach
// holds the written value.
func (m *MultiClient) Set(key, value []byte) {
	raise(m.TrySet(key, value))
}

// TrySet is Set with crash-time failures surfaced as errors instead of
// panics: when the key's owner fail-stops mid-write and the pool has not
// reconfigured yet, it returns an error satisfying IsUnavailable (the
// write may or may not have landed — the node took the answer with it),
// and the caller retries after the pool reconfigures. Internal
// bookkeeping (entry locks, write registrations) is always released
// before the error returns, so a failed TrySet never wedges later
// writers.
func (m *MultiClient) TrySet(key, value []byte) error {
	m.kv1[0] = KV{Key: key, Value: value}
	return m.write(m.kv1[:], exec.Serial)
}

// MSet stores a batch of pairs: the owning MNs' groups as ONE
// doorbell-batched MSet, each key stored once, with its last pair.
// Replicated keys are written through one by one first (hot keys are
// read-heavy by definition, so a batch rarely carries more than a few).
// Like Set it panics with a typed error when an owner is unusable —
// after releasing every lock and registration the batch took.
func (m *MultiClient) MSet(pairs []KV) {
	raise(m.write(pairs, exec.Doorbell))
}

// write is THE routed write pipeline. With replication on, each pair
// first opens the replicated-write bracket (beginWrite, replica.go): a
// live entry is written through under its lock right there; every other
// pair is left registered as an unreplicated write in flight and joins
// the routed batch, after which endWrite repairs any entry a racing
// promotion published meanwhile and unregisters it. Typed failures —
// an unusable owner, an exhausted retry budget — are returned only after
// the whole bracket is closed.
func (m *MultiClient) write(pairs []KV, strat exec.Strategy) error {
	if len(pairs) == 0 {
		return nil
	}
	hot := m.mc.hot
	sc := m.scratch(len(pairs))
	routed := sc.pend[:0]
	var first error
	err := catchUnavailable(func() {
		if hot != nil {
			m.drainPromotions()
		}
		for i := range pairs {
			if hot != nil {
				if e := m.beginWrite(pairs[i].Key, false); e != nil {
					if werr := m.writeThrough(e, pairs, i); first == nil {
						first = werr
					}
					continue
				}
			}
			routed = append(routed, i)
		}
		m.writeRouted(pairs, routed, strat)
	})
	if hot != nil {
		for _, i := range routed {
			if rerr := m.endWrite(pairs[i].Key, err == nil); first == nil {
				first = rerr
			}
		}
	}
	m.release(sc)
	if first == nil {
		first = err
	}
	return first
}

// writeRouted stores pairs[idxs] on their ring owners, the owners' groups
// together. During a reshard the new owner gets the write and any
// pre-reshard copy on the old owner is deleted behind it — one delete pass
// over the old owners — so a later eviction of the fresh value cannot let
// the resharder resurrect the superseded one. (The resharder's source CAS
// fails once the old copy is gone, and its insert-if-absent never
// overwrites the write; a write racing a migrated insert into a different
// slot may be shadowed until the reshard's verification sweep — see the
// MultiCluster comment.)
//
// The reshard's straggler-pass safety net assumes a write's routing
// decision is at most one operation's span stale, so the driver re-checks
// the epoch before every pass (fan.moved) and hands back whatever a ring
// switch — or a node fail-stop the pool has already reconfigured around —
// left unstored, to be re-routed against the new ring: the residual window
// of the whole batch is one pass's span, the bound a single Set has.
func (m *MultiClient) writeRouted(pairs []KV, idxs []int, strat exec.Strategy) {
	sc := m.scratch(len(pairs))
	for pend := idxs; len(pend) > 0; {
		snap := m.mc.snap()
		window := sc.window[:0]
		for _, i := range pend {
			if sc.cur[i], sc.old[i] = snap.owner(pairs[i].Key); sc.old[i] >= 0 {
				window = append(window, i)
			}
		}
		f := m.fanout(sc, pend, sc.cur, snap.epoch)
		for gi := range f.groups {
			if g := &f.groups[gi]; g.c == nil {
				// Reads degrade when a routed owner has no backing node (the
				// miss is counted on a survivor), but a write has nowhere to
				// land: the ring and the membership switch atomically, so
				// this is a corrupted deployment — fail loudly and typed.
				panic(&NoOwnerError{Node: g.node})
			}
		}
		pend = f.mset(strat, pairs, sc.pend[:0]) // idxs stays the caller's
		err := f.err
		for _, i := range pend {
			sc.old[i] = -1 // not stored (yet): nothing to clean up behind
		}
		stored := window[:0]
		for _, i := range window {
			if sc.old[i] >= 0 {
				stored, sc.keys[i] = append(stored, i), pairs[i].Key
			}
		}
		if len(stored) > 0 {
			// The cleanup is owed whatever the ring does next, so it runs
			// under the epoch of the moment. A pre-reshard copy on an old
			// owner that has left the pool, or fail-stops mid-delete, died
			// with the node — the cleanup's goal is already met.
			m.fanout(sc, stored, sc.old, m.mc.snap().epoch).mdelete(strat, sc.keys, nil, nil)
		}
		if err != nil && m.mc.snap().epoch == snap.epoch {
			// An owner fail-stopped mid-write; none of its group's outcomes
			// are knowable (the live owners' pairs are stored). Once
			// CrashNode has re-routed the key space the group is stored
			// again on its new owners; until then the failure is the
			// caller's to retry.
			raise(err)
		}
	}
	m.release(sc)
}

// ---------------------------------------------------------------- remove ----

// Delete removes key from its owning MN, reporting whether a copy was
// present. A replicated key is demoted first — its replicas are
// invalidated under the entry lock BEFORE the primary copy is cleared,
// so no spread read can hit a replica after the delete returns — and the
// span is registered like an unreplicated write, so a promotion racing
// the delete publishes warming and is then repaired before returning:
// the repair finds the primary gone and demotes the entry.
func (m *MultiClient) Delete(key []byte) bool {
	m.key1[0], m.ok1[0] = key, false
	raise(m.remove(m.key1[:], m.ok1[:], exec.Serial))
	return m.ok1[0]
}

// MDelete removes a batch of keys: the owning MNs' groups as ONE
// doorbell-batched MDelete, with Delete's per-key guarantees.
func (m *MultiClient) MDelete(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	raise(m.remove(keys, out, exec.Doorbell))
	return out
}

// remove is THE routed remove pipeline: out[i] reports whether any copy
// of keys[i] was deleted. With replication on every key opens the
// replicated-write bracket in remove mode — its entry, if any, is
// dissolved — and the bracket is closed for the whole batch (a repair
// failure on one key must not strand the rest registered) before the
// first failure surfaces.
func (m *MultiClient) remove(keys [][]byte, out []bool, strat exec.Strategy) error {
	hot := m.mc.hot
	n := 0 // keys[:n] hold a registration
	first := catchUnavailable(func() {
		if hot != nil {
			for ; n < len(keys); n++ {
				m.beginWrite(keys[n], true)
			}
		}
		m.removeRouted(keys, out, strat)
	})
	for _, k := range keys[:n] {
		if rerr := m.endWrite(k, true); first == nil {
			first = rerr
		}
	}
	return first
}

// removeRouted clears every key on its ring owner. During a reshard both
// owners are cleared, old copy first, one batched pass per side — that
// ordering, combined with the resharder's verify-then-undo CAS
// discipline, ensures a racing migration cannot durably resurrect the
// deleted key (the dead value may flicker back for the few verb round
// trips between the resharder's insert and its undo, but never outlives
// the reshard). Like writes, the epoch is re-checked before each pass
// (fan.moved): after a ring switch every unissued routing decision is
// stale, so the keys whose current-owner delete has not run re-route —
// otherwise a key migrated to a new owner between routing and issue would
// survive its own deletion (re-clearing an old copy is idempotent).
func (m *MultiClient) removeRouted(keys [][]byte, out []bool, strat exec.Strategy) {
	sc := m.scratch(len(keys))
	pend := sc.pend[:0]
	for i := range keys {
		pend = append(pend, i)
	}
	for len(pend) > 0 {
		snap := m.mc.snap()
		window := sc.window[:0]
		for _, i := range pend {
			sc.cur[i], sc.old[i] = snap.owner(keys[i])
			if sc.old[i] >= 0 {
				window = append(window, i)
			}
		}
		if stale := m.fanout(sc, window, sc.old, snap.epoch).mdelete(strat, keys, out, sc.silent[:0]); len(stale) > 0 {
			continue // nothing reached a current owner yet: re-route it all
		}
		pend = m.fanout(sc, pend, sc.cur, snap.epoch).mdelete(strat, keys, out, pend[:0])
	}
	m.release(sc)
}

// sortedNodeIDs returns a node-keyed map's IDs in ascending order — the
// one deterministic-iteration helper for maps that may hold departed
// nodes (Close, Stats, the resharder's free-list surrender over
// connected clients). The operation fan-outs themselves group by node ID
// into a slice (MultiClient.fanout) instead of sorting per call.
func sortedNodeIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	//dittolint:allow simdet (this helper IS the sanctioned pattern: the keys are sorted before any caller iterates them)
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Close flushes buffered client state on every connected MN. Flushes to
// nodes that fail-stopped (or left the pool) are skipped — their remote
// state died with them.
func (m *MultiClient) Close() {
	for _, id := range sortedNodeIDs(m.clients) {
		c := m.clients[id]
		if c.cl.dead {
			continue
		}
		_ = rdma.CatchUnreachable(func() { c.Close() })
	}
}

// Stats aggregates per-MN client stats.
func (m *MultiClient) Stats() Stats {
	var s Stats
	for _, id := range sortedNodeIDs(m.clients) {
		s.Add(m.clients[id].Stats)
	}
	return s
}
