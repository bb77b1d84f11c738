package core

// The verb plans: each cache operation's one-sided verb sequence (§4.1),
// written ONCE as an exec.Plan and executed under either strategy.
//
//	Get:     [ONE hinted object READ, validated in place →]
//	         key walk                                       → hit/miss/stale
//	Set:     key walk → classify [full buckets: pick an
//	         occupant to displace] → WRITE + publish CAS
//	         [→ lost to the key's newer image: READ it →
//	         (WRITE +) CAS again]                           → done/casLost
//	Migrate: Set in insert-if-absent mode (absence verified
//	         in BOTH buckets, metadata carried over, post-
//	         publish duplicate sweep = a second key walk
//	         that skips the published slot) → source
//	         delete CAS                                     → moved/skipped/retry
//	Delete:  key walk → delete CASes                        → deleted?
//
// The key walk (keyWalk) is the step every keyed operation shares: READ
// the key's bucket(s) in the sample-friendly hash table, READ the
// fingerprint-matching objects, compare the inline key. It is defined
// once and embedded; each plan adds only what is its own (the table in
// docs/ARCHITECTURE.md, "The verb-plan executor").
//
// Serial traversal (exec.Serial) is lazy and reproduces the paper's
// per-key paths verb for verb: a Get that hits in the main bucket never
// reads the backup bucket, an insert stops at the first bucket with a
// reclaimable slot. Doorbell traversal (exec.Doorbell) is eager — both
// buckets, then every candidate object, as one stage each — so N plans
// advance as shared doorbell batches. Under either, verbs that depend on
// nothing the plan has yet to learn share a group (an object WRITE and
// its publishing CAS, an eviction's sample READs and its history-ID FAA),
// and a group is one round trip: a plan costs its dependency levels, not
// its verbs. A complication a plan can resolve from what its verbs
// returned stays inside it (a rejected hint continues into the walk, a
// CAS lost to a newer image of the key chases it, an insert into two full
// buckets displaces an occupant with its publishing CAS); the rest (stale
// snapshot, a CAS lost to anything else) finish the plan with that
// outcome, and its driver re-runs the key — serially for a lone operation,
// together with the batch's other unsettled keys under Doorbell.
//
// Metadata maintenance stays off the critical path: plans issue only the
// synchronous critical-path verbs; frequency FAAs (via the FC cache),
// last_ts and insert-metadata WRITEs ride asynchronously from the
// completion hooks.

import (
	"bytes"

	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/history"
	"ditto/internal/loccache"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
)

// readVerb is a READ delivered into the plan-owned buffer at *buf (sized
// here, allocated at most once per pooled plan).
func (c *Client) readVerb(op rdma.BatchOp, buf *[]byte) exec.Verb {
	*buf = grow(*buf, op.Len)
	op.Buf = *buf
	return exec.Verb{EP: c.ep, Op: op}
}

// bucketVerb is the bucket READ of the key walk.
func (c *Client) bucketVerb(b int, buf *[]byte) exec.Verb {
	return c.readVerb(c.cl.Layout.BucketReadOp(b), buf)
}

// objectVerb is the object READ behind a slot.
func (c *Client) objectVerb(s hashtable.Slot, buf *[]byte) exec.Verb {
	return c.readVerb(rdma.BatchOp{
		Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: s.Atomic.SizeBytes(),
	}, buf)
}

// casVerb is a slot-atomic CAS.
func casVerb(c *Client, slotAddr uint64, expect, swap hashtable.AtomicField) exec.Verb {
	return exec.Verb{EP: c.ep, Op: rdma.BatchOp{
		Kind: rdma.BatchCAS, Addr: hashtable.AtomicAddr(slotAddr),
		Expect: uint64(expect), Swap: uint64(swap),
	}}
}

// ---------------------------------------------------- single verbs ----
//
// Not every remote access is a multi-verb sequence: metadata
// maintenance, ablation probes, and migration re-reads are lone verbs.
// They still belong to this file — the declare-once invariant (PR 3)
// says every verb the client issues is visible here, so changing a wire
// interaction never means hunting call sites. dittolint's verbplan
// analyzer enforces exactly that: a raw endpoint verb outside plan.go,
// internal/exec, internal/baselines, or the handle layer fails CI.

// readObject synchronously fetches the object behind a live slot.
func (c *Client) readObject(s hashtable.Slot) []byte {
	return c.ep.Read(s.Atomic.Pointer(), s.Atomic.SizeBytes())
}

// issueRead synchronously issues one declared READ op (the op itself is
// built by an addressing owner such as extReadOp).
func (c *Client) issueRead(op rdma.BatchOp) []byte {
	return c.ep.Read(op.Addr, op.Len)
}

// metaWriteAsync rides metadata maintenance off the critical path with
// one asynchronous WRITE (completion ignored; §4.1 "stateless fields").
func (c *Client) metaWriteAsync(addr uint64, data []byte) {
	c.ep.WriteAsync(addr, data)
}

// releaseBlock is THE settlement of a published block this client just
// unlinked from its slot (the unlinking CAS won): clear the block's
// tenant+incarnation bytes with one asynchronous 8-byte WRITE, free it,
// drop the slot's buffered FC delta, credit the bytes back to the tenant
// they were charged to. vacated is the slot's address when the slot
// itself was emptied (delete, eviction, migration, undo) and 0 when it
// was re-pointed at a new image (an out-of-place update keeps the slot
// and its buffered delta).
//
// The stamp is what keeps a lingering image in freed-but-not-yet-reused
// memory from ever validating a speculative read (object.go: ver 0 never
// validates); block REUSE needs none, since the next image's unique ver
// already mismatches every outstanding hint — which is also why a
// CAS-losing staged block, never published, is freed unstamped. The
// stamp MUST precede the free: after it, another client may already
// have reallocated and republished the address, and the stamp would
// corrupt a live object. It is gated on specMode: with the location
// cache off nothing ever reads it, and skipping the WRITE keeps the
// seed's verb shapes byte-for-byte.
func (c *Client) releaseBlock(atom hashtable.AtomicField, vacated uint64, t TenantID) {
	if c.cl.specMode() {
		c.ep.WriteAsync(atom.Pointer()+objTenantOff, c.stamp8[:])
	}
	c.alloc.Free(atom.Pointer(), atom.SizeBytes())
	if vacated != 0 {
		c.fc.Forget(vacated)
	}
	c.accountTenant(t, -int64(atom.SizeBytes()))
}

// probeConventionalIndex models the conventional design's per-miss probe
// of a separate remote index over the history (DisableLWH ablation): one
// extra 8-byte READ against the history counter.
func (c *Client) probeConventionalIndex() {
	c.ep.Read(memnode.HistCounterAddr, 8)
}

// readObjects fetches the objects behind the given slots with one
// doorbell batch of READs (used by the resharder's scan pipeline).
func (c *Client) readObjects(slots []hashtable.Slot) [][]byte {
	if len(slots) == 0 {
		return nil
	}
	ops := make([]rdma.BatchOp, len(slots))
	for i, s := range slots {
		ops[i] = rdma.BatchOp{Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: s.Atomic.SizeBytes()}
	}
	res := c.ep.PostBatch(ops)
	out := make([][]byte, len(slots))
	for i := range res {
		out[i] = res[i].Data
	}
	return out
}

// extVerbs appends every candidate's metadata READ (extReadOp), delivered
// into bufs, to vs. Nomination needs them all, so no READ can short-circuit
// another: they are one group under either traversal.
func (c *Client) extVerbs(vs []exec.Verb, cands []candidate, bufs *[][]byte) []exec.Verb {
	for i := range cands {
		vs = append(vs, c.readVerb(c.extReadOp(cands[i].slot), bufAt(bufs, i)))
	}
	return vs
}

// stageEnd returns the exclusive end of one stage's next verb group:
// the single next item under lazy traversal, every remaining item under
// eager — the shared emission rule of all plan stages. next is the
// stage's progress cursor (advanced by Absorb), total its item count.
func stageEnd(eager bool, next, total int) int {
	if eager {
		return total
	}
	return next + 1
}

// -------------------------------------------------------------- Key walk ----

// walkCand is one live slot of the key's buckets whose fingerprint
// matches the key, with the object behind it once the walk has read it.
type walkCand struct {
	slot  hashtable.Slot
	bkt   int           // which of the key's buckets held it: 0 main, 1 backup
	dec   decodedObject // the object image, valid once absorbed
	match bool          // dec is a well-formed image of the walk's key
}

// keyWalk is the lookup every keyed plan starts with (and the migrate
// sweep and the reshard verification repeat): READ the key's main then
// backup bucket, READ the object behind every fingerprint-matching live
// slot, decode it and compare the inline key. The walk owns the bucket
// list, both cursors, the fingerprint filter, the lazy-vs-eager group
// emission and the READ delivery buffers; what a match MEANS — first
// live one wins, every one is deleted, any one vetoes an insert — is the
// embedding plan's, read off the candidates absorb returns.
//
// Candidates are read before the next bucket, so a lazy traversal that
// stops at a match in the main bucket never touches the backup bucket.
type keyWalk struct {
	c       *Client
	key     []byte
	kh      uint64
	fp      byte
	buckets [2]int
	skip    uint64 // slot address the walk passes over (0: none)

	bi      int              // buckets absorbed
	ci      int              // candidates absorbed
	objects bool             // the in-flight group is object READs
	slots   []hashtable.Slot // every slot read so far, in scan order
	bktOff  [3]int           // bucket i's slots are slots[bktOff[i]:bktOff[i+1]]
	cands   []walkCand

	// Pooled scratch, kept across aim: verb-group emission (shared with
	// the embedding plan's own stages) and the READ delivery buffers, one
	// per verb index so in-flight READs of one stage never share one.
	verbs   []exec.Verb
	bktBuf  [][]byte
	objBufs [][]byte
}

// aim points the walk at key, keeping its scratch buffers.
func (w *keyWalk) aim(c *Client, key []byte) {
	kh := hashtable.KeyHash(key)
	w.c, w.key, w.kh = c, key, kh
	w.fp = hashtable.Fingerprint(kh)
	w.buckets = [2]int{c.cl.Layout.MainBucket(kh), c.cl.Layout.BackupBucket(kh)}
	w.rewind(0)
}

// rewind restarts the walk over the same key, passing over the slot at
// skip — the "is there ANOTHER copy" form.
func (w *keyWalk) rewind(skip uint64) {
	w.skip = skip
	w.bi, w.ci = 0, 0
	w.slots, w.cands = w.slots[:0], w.cands[:0]
	w.bktOff = [3]int{}
}

// step emits the walk's next READ group — unread candidates first, else
// the next bucket(s) — and an empty group once both are exhausted.
func (w *keyWalk) step(eager bool) []exec.Verb {
	w.verbs = w.verbs[:0]
	w.objects = w.ci < len(w.cands)
	switch {
	case w.objects:
		for i := w.ci; i < stageEnd(eager, w.ci, len(w.cands)); i++ {
			w.verbs = append(w.verbs, w.c.objectVerb(w.cands[i].slot, bufAt(&w.objBufs, i)))
		}
	case w.bi < len(w.buckets):
		for i := w.bi; i < stageEnd(eager, w.bi, len(w.buckets)); i++ {
			w.verbs = append(w.verbs, w.c.bucketVerb(w.buckets[i], bufAt(&w.bktBuf, i)))
		}
	}
	return w.verbs
}

// absorb consumes the completions of the group step emitted last. A
// bucket group is decoded into slots and filtered into candidates; an
// object group is decoded and key-matched, and the candidates it
// completed are returned (nil for a bucket group).
func (w *keyWalk) absorb(res []exec.Result) []walkCand {
	if w.objects {
		from := w.ci
		for _, r := range res {
			cand := &w.cands[w.ci]
			cand.dec, cand.match = matchObject(r.Data, w.key)
			w.ci++
		}
		return w.cands[from:w.ci]
	}
	for _, r := range res {
		w.slots = w.c.cl.Layout.AppendBucket(w.slots, w.buckets[w.bi], r.Data)
		for _, s := range w.slots[w.bktOff[w.bi]:] {
			if s.Addr != w.skip && !s.Atomic.IsEmpty() && !s.Atomic.IsHistory() && s.Atomic.FP() == w.fp {
				w.cands = append(w.cands, walkCand{slot: s, bkt: w.bi})
			}
		}
		w.bi++
		w.bktOff[w.bi] = len(w.slots)
	}
	return nil
}

// ------------------------------------------------------------------- Get ----

// getPlan speculation states.
const (
	specNone     = iota // no hint: the plan is the bare walk
	specPending         // the hinted object READ is the plan's next group
	specHit             // the hinted image validated: the plan's hit
	specRejected        // validation failed: the walk follows
)

// getPlan is one Get attempt: the key walk, stopped at the first live
// match, with the stale-snapshot fallback edge surfaced as the `stale`
// outcome (the drivers re-run a fresh attempt, bounded by getRetries).
// Its own: the history entries of the key it passes (regret collection
// on a miss), the lease check, and an optional speculative first stage.
//
// The speculative stage is the one-RTT Get behind a location-cache hint:
// ONE READ of the hinted block at its remembered size class, validated
// in place against the hint — the image must decode and carry the key
// (matchObject, the walk's own test), the incarnation stamp must equal
// the hint's exactly (object.go explains why that is sufficient), the
// tenant must match, and under tenantMode the lease must be live. A
// validated image is the plan's hit after exactly one verb (pinned by
// TestSpecGetVerbBudget). After any failure the SAME plan continues into
// the ordinary walk, whose hit re-records a fresh hint over the rejected
// one in place (sparing the common reject-then-hit a drop and re-insert);
// a walk that ends without one drops it. So under Doorbell a rejected
// hint costs its batch one shared round, never a per-key detour: the hinted READ joins the first doorbell
// beside the unhinted keys' bucket READs, and the rejected key's bucket
// READs join the second beside their object READs.
type getPlan struct {
	keyWalk

	histMatches []hashtable.Slot
	stale       bool

	// rnow is the attempt's reference time for lease-expiry checks,
	// captured at reset so a doorbell batch judges every key against one
	// clock reading (and re-captured when a rejected hint starts the walk
	// a round later).
	rnow int64

	spec    int
	hint    loccache.Hint
	specBuf []byte // the hinted READ's delivery buffer (pooled)

	hit  bool
	slot hashtable.Slot
	dec  decodedObject
}

// reset re-aims the plan at key, keeping its scratch buffers. spec asks
// for the speculative first stage when the client holds a hint for key.
func (pl *getPlan) reset(c *Client, key []byte, spec bool) *getPlan {
	pl.aim(c, key)
	pl.histMatches = pl.histMatches[:0]
	pl.stale, pl.hit = false, false
	pl.rnow = c.p.Now()
	pl.slot, pl.dec = hashtable.Slot{}, decodedObject{}
	pl.spec = specNone
	if spec && c.loc != nil {
		if h, ok := c.loc.Lookup(key); ok {
			pl.spec, pl.hint = specPending, h
		}
	}
	return pl
}

func (pl *getPlan) Step(eager bool) []exec.Verb {
	if pl.hit {
		return nil
	}
	if pl.spec == specPending {
		pl.verbs = append(pl.verbs[:0], pl.c.readVerb(rdma.BatchOp{
			Kind: rdma.BatchRead, Addr: pl.hint.Addr, Len: pl.hint.Len,
		}, &pl.specBuf))
		return pl.verbs
	}
	vs := pl.step(eager)
	if len(vs) == 0 && pl.spec == specRejected {
		// The walk ended without the hit that would have re-recorded a
		// fresh hint over the rejected one in place: retire it.
		pl.c.loc.Drop(pl.key)
	}
	return vs
}

func (pl *getPlan) Absorb(res []exec.Result) {
	if pl.spec == specPending {
		if dec, ok := pl.validHint(res[0].Data); ok {
			pl.spec, pl.hit, pl.dec = specHit, true, dec
			return
		}
		// Block freed, reused, or never what we thought: the walk takes
		// over, judged against the clock of the round it starts in.
		pl.spec = specRejected
		pl.c.Stats.SpecGetFallbacks++
		pl.rnow = pl.c.p.Now()
		return
	}
	seen := len(pl.slots)
	fresh := pl.absorb(res)
	for _, s := range pl.slots[seen:] {
		if s.Atomic.IsHistory() && s.Hash == pl.kh {
			pl.histMatches = append(pl.histMatches, s)
		}
	}
	for i := range fresh {
		cand := &fresh[i]
		switch {
		case !cand.dec.ok:
			pl.stale = true // reused memory behind a stale slot snapshot
		case !cand.match: // fingerprint collision
		case pl.c.cl.tenantMode && cand.dec.expired(pl.rnow):
			// A lapsed lease reads as a miss immediately; reclaiming the
			// block is the eviction sampler's job (never a reader's —
			// the read path stays write-free).
		default:
			pl.hit, pl.slot, pl.dec = true, cand.slot, cand.dec
			return // first match wins; later candidates are stale copies
		}
	}
}

// validHint validates the hinted image in place. A lapsed lease is a
// rejection too, so the walk applies the exact lease-as-miss semantics
// (and its counting conventions).
func (pl *getPlan) validHint(img []byte) (decodedObject, bool) {
	dec, match := matchObject(img, pl.key)
	h := &pl.hint
	ok := match && dec.ver != 0 && dec.ver == h.Ver && dec.tenant == TenantID(h.Tenant) &&
		!(pl.c.cl.tenantMode && dec.expired(pl.rnow))
	return dec, ok
}

// ------------------------------------------------------------------- Set ----

// setPlan states.
const (
	sScan     = iota // the key walk (an armed eviction's groups ride beside it)
	sDisplace        // both buckets full, victim needs per-candidate metadata: the ext READs, one group
	sEvict           // walk classified, armed eviction still in flight: its remaining groups
	sWrite           // object WRITE and publishing CAS, one group
	sCAS             // publishing CAS alone (a chase left the staged image as written)
	sChase           // READ of the image that beat our CAS to the slot
	sSweep           // migrate mode: post-publish duplicate sweep (second walk)
	sDone
)

// setChases bounds how many times one plan chases the slot's new
// occupant after a lost publish CAS before it gives the attempt up as
// setCASLost. Generous: every chase makes progress against SOME writer
// (a CAS only loses to one that won), and giving up costs the whole walk
// again.
const setChases = 64

// setPlan outcomes.
const (
	setPending = iota
	setDone    // published; migrate mode: insert survived the sweep
	setCASLost // publish CAS lost a race; staged object freed
	setPresent // migrate mode: key already present, or our copy yielded
	// setSuperseded: never run — a later pair of the same MSet stores the
	// key (setBatch.stage, batch.go).
	setSuperseded
)

// publish modes.
const (
	pUpdate = iota
	pInsert
)

// setPlan is one Set attempt (§4.1 UPDATE/INSERT): the key walk, then
// classify update-in-place vs insert with a fixed per-bucket precedence
// (a bucket's key match beats its reclaimable slot beats the next
// bucket), then stage the object WRITE and the publishing CAS. Its own:
// that classification, the reclaimable-slot search over the walk's
// slots, the staged image and the post-CAS settlement.
//
// The WRITE and the CAS are ONE verb group under either traversal: an RC
// queue pair executes in posting order (and a doorbell applies effects in
// posting order), so the CAS can never publish a block its WRITE has not
// filled, and a losing CAS leaves only a private block behind. A clean
// insert is therefore two round trips — bucket READ, WRITE+CAS — and a
// batched store three doorbells — bucket READs, object READs, WRITE+CAS.
//
// A Set into a full cache stays three round trips by PREFETCHING its
// eviction: the serial store driver takes the block before the first verb
// and, when the allocator has none, arms the plan with an evictPlan (ev).
// The eviction's groups then ride beside the walk's — sample READ(s) and
// history-ID FAA beside the bucket READ, the victim CAS beside the
// candidate object READ if there is one — and stage waits (sEvict) for
// whatever the eviction still has in flight, so the victim's block is on
// the free list when it allocates. An attempt that samples nothing or
// loses its victim CAS leaves stage to allocOrEvict's inline loop, as an
// unarmed plan. Batch drivers never arm: a batch's own updates free blocks
// mid-batch, so prefetching one victim per pair would over-evict. When the
// dry allocator's cadence calls for a supply probe (memnode.Alloc), that
// 8-byte READ rides the first group too.
//
// Two FULL buckets (live objects and valid history entries only: one
// insert in eleven at the table's 80 % load) do not end the attempt
// either: the plan DISPLACES an occupant. Over the slots the walk decoded
// it picks the deciding expert's lowest-priority live object (under
// tenancy an expired lease, then over-quota tenants, first), or with none
// live the history entry closest to expiry, as the insert's slot: the
// publishing CAS expects the occupant's atomic, so ONE verb evicts and
// publishes, a rival that took the occupant first is an ordinary lost CAS,
// and a won one settles the victim (no history entry for this corner; only
// the deciding expert is credited). Metadata kept with the objects
// (needsExtRead) is READ first, in sDisplace, all of it as one group.
//
// A publish CAS that loses returns the slot's current atomic. When that
// is a live object carrying the key's fingerprint — the usual loss: a
// concurrent writer's out-of-place update of the same key, or an earlier
// pair of the same batch — the plan CHASES it instead of giving up: it
// keeps its staged block, READs the image behind the returned pointer,
// and if that is the key (matchObject) re-points the update at it
// (superseded tenant, lease and extension metadata from the fresh
// image), re-WRITEs only when that changed the staged image, and CASes
// again: two rounds, where finishing setCASLost costs the driver the
// free, a back-off and the whole walk. Anything else behind the pointer
// (another key of the same fingerprint, reused memory) takes the
// ordinary setCASLost edge. Bounded by setChases; only updates chase —
// so never a migrate-mode plan, whose insert must not overwrite a copy
// it did not see.
//
// In migrate mode the plan is the resharder's insert-if-absent: the
// absence check covers BOTH buckets before committing (a newer
// client-written copy in the backup bucket must win), the carried
// metadata is written instead of fresh metadata, and a post-publish
// duplicate sweep walks the buckets again, passing over the slot just
// published — a racing Set that read them before our CAS landed can
// have published the same key into a different slot; that copy is newer
// by construction, so ours yields.
type setPlan struct {
	keyWalk
	value []byte
	size  int

	migrate            bool
	mExt               []byte
	mInsertTs, mLastTs int64
	mFreq              uint64

	// Tenancy: the header stamp of the staged object image (the client's
	// bound tenant and pending lease — or, in migrate mode, the moved
	// copy's carried values), the attempt's reference time for expiry
	// checks, and expUpd marking an update whose matched copy had an
	// EXPIRED lease — staged and finished with fresh metadata, as an
	// insert would be (a dead object is not "accessed" by replacing it).
	tenant TenantID
	expiry int64
	rnow   int64
	expUpd bool

	st        int
	lastEager bool // traversal mode of the in-flight group
	doneBkt   int  // first bucket whose post-candidate logic hasn't run

	// What the store driver armed the attempt with (Client.arm): the block
	// in addr when held, else — the allocator had none — the eviction to
	// prefetch (nil: unarmed; disarm takes it back) and whether the first
	// group carries the supply probe. Then how many of the in-flight
	// sScan/sDisplace group's verbs are the plan's own (theirs follow), and
	// when the in-flight sEvict group was emitted — a round that exists
	// only because the write had to evict: Stats.WriteStallNs.
	held      bool
	ev        *evictPlan
	probe     bool
	nWalk     int
	stallFrom int64

	mode    int
	updSlot hashtable.Slot
	updDec  decodedObject
	insSlot hashtable.Slot
	haveIns bool

	// Displacement: the live candidates among the walk's slots, the one
	// insSlot displaces when evicting, and the expert credited with it
	// (nil: an expired lease blames nobody) at which priority.
	dcands   []candidate
	victim   candidate
	evicting bool
	blamed   cachealgo.Algorithm
	blameP   float64

	now  int64
	addr uint64
	ver  uint64 // incarnation stamp of the staged image (nextVer at stage)
	data []byte
	want hashtable.AtomicField

	outcome  int
	slotAddr uint64 // published slot (migrate: undo handle with `want`)
	chases   int    // lost publish CASes this attempt chased (counted drivers add them to SetRetries)

	// Pooled scratch, kept across reset: the extension/object-image build
	// buffers (extBuf backs the ext passed to stage; data backs the
	// staged WRITE and is retained until the publishing CAS) and the chase
	// READ's delivery buffer (updDec views it after a chase; the supply
	// probe, long absorbed by then, borrows it).
	extBuf   []byte
	chaseBuf []byte
}

// reset re-aims the plan at key/value in normal (non-migrate) mode,
// keeping its scratch buffers.
func (pl *setPlan) reset(c *Client, key, value []byte) *setPlan {
	pl.aim(c, key)
	pl.value = value
	pl.size = objBytes(len(key), len(value), c.cl.totalExt)
	pl.migrate, pl.mExt = false, nil
	pl.mInsertTs, pl.mLastTs, pl.mFreq = 0, 0, 0
	pl.tenant, pl.expiry = c.tenant, c.nextExpiry
	pl.rnow = c.p.Now()
	pl.expUpd = false
	pl.st, pl.lastEager, pl.doneBkt = sScan, false, 0
	pl.held, pl.ev, pl.probe, pl.evicting = false, nil, false, false
	pl.mode = pUpdate
	pl.updSlot, pl.insSlot = hashtable.Slot{}, hashtable.Slot{}
	pl.updDec = decodedObject{}
	pl.haveIns = false
	pl.now, pl.addr, pl.ver = 0, 0, 0
	pl.data = pl.data[:0]
	pl.want = 0
	pl.outcome = setPending
	pl.slotAddr, pl.chases = 0, 0
	return pl
}

func (pl *setPlan) Step(eager bool) []exec.Verb {
	pl.lastEager = eager
	for {
		switch pl.st {
		case sScan:
			vs := pl.step(eager)
			if len(vs) == 0 {
				pl.finishScan()
				continue
			}
			return pl.ride(vs, eager)
		case sDisplace: // into the object buffers the walk is done with
			return pl.ride(pl.c.extVerbs(pl.verbs[:0], pl.dcands, &pl.objBufs), eager)
		case sEvict:
			if vs := pl.ev.Step(eager); len(vs) > 0 {
				pl.stallFrom = pl.c.p.Now()
				return vs
			}
			pl.stage()
		case sWrite, sCAS:
			pl.verbs = pl.verbs[:0]
			if pl.st == sWrite {
				pl.verbs = append(pl.verbs, exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
					Kind: rdma.BatchWrite, Addr: pl.addr, Data: pl.data,
				}})
				pl.st = sCAS // the CAS rides the same group, behind the WRITE
			}
			target := pl.target()
			pl.verbs = append(pl.verbs, casVerb(pl.c, target.Addr, target.Atomic, pl.want))
			return pl.verbs
		case sChase:
			pl.verbs = append(pl.verbs[:0], pl.c.objectVerb(pl.updSlot, &pl.chaseBuf))
			return pl.verbs
		case sSweep:
			if vs := pl.step(eager); len(vs) > 0 {
				return vs
			}
			pl.outcome = setDone // no duplicate: the insert stands
			pl.st = sDone
		default:
			return nil
		}
	}
}

// ride appends to the plan's own group vs what the driver armed the
// attempt with (the eviction's next group; once, the supply probe) and
// unride hands their completions back — the eviction's first: what the
// plan decides next (stage) depends on where it stands.
func (pl *setPlan) ride(vs []exec.Verb, eager bool) []exec.Verb {
	pl.nWalk = len(vs)
	if pl.ev != nil {
		vs = append(vs, pl.ev.Step(eager)...)
	}
	if pl.probe {
		vs = append(vs, pl.c.readVerb(memnode.SupplyProbeOp(), &pl.chaseBuf))
	}
	pl.verbs = vs
	return vs
}

func (pl *setPlan) unride(res []exec.Result) []exec.Result {
	if pl.probe {
		pl.probe = false
		pl.c.alloc.AbsorbSupply(res[len(res)-1].Data)
		res = res[:len(res)-1]
	}
	if len(res) > pl.nWalk {
		pl.ev.Absorb(res[pl.nWalk:])
	}
	return res[:pl.nWalk]
}

// target is the slot the publishing CAS aims at.
func (pl *setPlan) target() hashtable.Slot {
	if pl.mode == pUpdate {
		return pl.updSlot
	}
	return pl.insSlot
}

func (pl *setPlan) Absorb(res []exec.Result) {
	c := pl.c
	switch pl.st {
	case sScan:
		res = pl.unride(res)
		// Lazy traversal reads one candidate per group and commits at the
		// FIRST key match, before later candidates (or the next bucket)
		// are even read. Eager traversal decodes everything first and lets
		// classifyThrough apply the per-bucket precedence.
		if fresh := pl.absorb(res); !pl.lastEager && len(fresh) > 0 && fresh[0].match {
			pl.matched(&fresh[0])
			return
		}
		if pl.ci == len(pl.cands) {
			pl.classifyThrough(pl.bi)
		}
	case sDisplace:
		for i, r := range pl.unride(res) {
			c.applyExt(&pl.dcands[i], r.Data)
		}
		pl.pickVictim()
	case sEvict:
		pl.ev.Absorb(res)
		c.Stats.WriteStallNs += c.p.Now() - pl.stallFrom
	case sCAS:
		if cas := res[len(res)-1]; !cas.Swapped { // the group's last verb, behind the WRITE if there is one
			pl.lost(hashtable.AtomicField(cas.Old))
			return
		}
		pl.slotAddr = pl.target().Addr
		// Block ownership transferred: charge the new image to the
		// stamped tenant.
		c.accountTenant(pl.tenant, int64(pl.want.SizeBytes()))
		if pl.evicting {
			// The same CAS unlinked the displaced occupant: settle it.
			if obs, ok := pl.blamed.(cachealgo.EvictionObserver); ok {
				obs.OnEvict(pl.blameP)
			}
			c.settleVictim(pl.victim)
			c.Stats.BucketEvictions++
		}
		if pl.migrate {
			c.fc.Forget(pl.slotAddr)
			c.ht.WriteMetaOnInsert(pl.slotAddr, pl.kh, pl.mInsertTs, pl.mLastTs, pl.mFreq)
			pl.st = sSweep
			pl.rewind(pl.slotAddr)
			return
		}
		pl.outcome = setDone
		pl.st = sDone
		if pl.mode == pUpdate {
			// The superseded block goes back to ITS tenant (cross-tenant
			// updates move the bytes between them); the slot stays
			// occupied, so its buffered FC delta is kept.
			c.releaseBlock(pl.updSlot.Atomic, 0, pl.updDec.tenant)
			if !pl.expUpd {
				c.fc.Add(pl.slotAddr, len(pl.key))
				c.ht.TouchLastTs(pl.slotAddr, pl.now)
				return
			}
			// The superseded copy's lease had lapsed: finish as an insert
			// (drop its stale FC delta, fresh slot metadata) — replacing a
			// dead object is not an access to it.
		}
		c.finishInsert(pl.slotAddr, pl.kh, pl.now)
	case sChase:
		dec, match := matchObject(res[0].Data, pl.key)
		if !match {
			pl.giveUp() // another key took the slot, or the image is already gone
			return
		}
		pl.updDec = dec
		pl.expUpd = c.cl.tenantMode && dec.expired(pl.rnow)
		pl.st = sCAS
		if pl.restage() {
			pl.st = sWrite
		}
	case sSweep:
		for _, cand := range pl.absorb(res) {
			if cand.match {
				// A racing write published the same key into another slot
				// after our CAS; that copy is newer — ours must yield.
				c.dropMigrated(pl.slotAddr, pl.want, pl.tenant)
				pl.outcome = setPresent
				pl.st = sDone
				return
			}
		}
	}
}

// matched commits to the copy of the key the scan found: an update in
// place, or in migrate mode the end of the attempt — the destination
// already holds a newer copy, and it wins.
func (pl *setPlan) matched(cand *walkCand) {
	if pl.migrate {
		pl.outcome = setPresent
		pl.st = sDone
		return
	}
	pl.expUpd = pl.c.cl.tenantMode && cand.dec.expired(pl.rnow)
	pl.mode = pUpdate
	pl.updSlot, pl.updDec = cand.slot, cand.dec
	pl.stage()
}

// lost handles a lost publish CAS that left now in the slot. An UPDATE
// chases a live object of the key's fingerprint — re-pointed at it, the
// READ of its image decides whether it is still the key. An insert gives
// up: whoever took the claimed slot is almost never this key (and a
// migrate-mode plan, which only ever stages inserts, must not overwrite a
// copy it did not see).
func (pl *setPlan) lost(now hashtable.AtomicField) {
	if pl.mode != pUpdate || pl.chases == setChases || now.IsEmpty() || now.IsHistory() || now.FP() != pl.fp {
		pl.giveUp()
		return
	}
	pl.chases++
	pl.updSlot.Atomic = now
	pl.st = sChase
}

// giveUp ends the attempt setCASLost. The staged block was never
// published, so never hinted: freed unstamped.
func (pl *setPlan) giveUp() {
	pl.c.alloc.Free(pl.addr, pl.size)
	pl.outcome = setCASLost
	pl.st = sDone
}

// classifyThrough runs the post-candidate classification for every bucket
// read so far (buckets [doneBkt, upTo); all their candidates are read),
// with the shared precedence: a bucket's key match beats its reclaimable
// slot beats the next bucket. In migrate mode a match anywhere wins first
// (absence must cover both buckets) and the reclaimable slot is only
// committed once the scan is complete.
func (pl *setPlan) classifyThrough(upTo int) {
	for b := pl.doneBkt; b < upTo; b++ {
		for i := range pl.cands {
			if cand := &pl.cands[i]; cand.match && (cand.bkt == b || pl.migrate) {
				pl.matched(cand)
				return
			}
		}
		pl.doneBkt = b + 1
		if pl.findFree(b) && !pl.migrate {
			pl.startInsert() // insert into the main bucket when possible
			return
		}
	}
	if upTo >= len(pl.buckets) {
		pl.finishScan()
	}
}

// findFree searches bucket b for the first reclaimable slot.
func (pl *setPlan) findFree(b int) bool {
	if pl.haveIns {
		return true
	}
	for _, s := range pl.slots[pl.bktOff[b]:pl.bktOff[b+1]] {
		if pl.c.hist.Reclaimable(s) {
			pl.insSlot, pl.haveIns = s, true
			return true
		}
	}
	return false
}

// finishScan ends the bucket scan without an update match: commit the
// insert into the reclaimable slot found, else into one it displaces —
// picked now, or after sDisplace's READs when the choice needs them.
func (pl *setPlan) finishScan() {
	if pl.haveIns {
		pl.startInsert()
		return
	}
	pl.dcands = pl.dcands[:0]
	for _, s := range pl.slots {
		if cand, ok := pl.c.liveCandidate(s); ok {
			pl.dcands = append(pl.dcands, cand)
		}
	}
	if len(pl.dcands) > 0 && pl.c.needsExtRead() {
		pl.st = sDisplace
		return
	}
	pl.pickVictim()
}

// pickVictim claims the slot of the occupant to displace (setPlan's
// comment has the policy; two full buckets always hold one), and stages.
func (pl *setPlan) pickVictim() {
	c, cands, now := pl.c, pl.dcands, pl.c.p.Now()
	if len(cands) == 0 {
		// All history: the entry closest to expiry goes, shortening the
		// logical FIFO for it only.
		pl.insSlot = pl.slots[0]
		for _, s := range pl.slots[1:] {
			if c.hist.Age(s.Atomic.Pointer()) > c.hist.Age(pl.insSlot.Atomic.Pointer()) {
				pl.insSlot = s
			}
		}
		pl.startInsert()
		return
	}
	vi := -1
	if c.cl.tenantMode {
		// An expired lease goes first, Delete-equivalent, blaming no expert;
		// then over-quota tenants' keys, and with none of those here the
		// global policy (there is no resampling a key's own buckets).
		exp, over := tenantVictims(cands, now, c.cl.overQuotaMask())
		if vi = exp; exp < 0 && len(over) > 0 {
			cands = over
		}
	}
	if pl.blamed = nil; vi < 0 {
		deciding := 0
		if c.adapt != nil {
			deciding = c.adapt.PickExpert(c.p.Rand())
		}
		vi, pl.blameP = c.lowestPriority(deciding, cands, now)
		pl.blamed = c.experts[deciding]
	}
	pl.victim, pl.evicting = cands[vi], true
	pl.insSlot = pl.victim.slot
	pl.startInsert()
}

// startInsert stages the INSERT into the claimed reclaimable slot.
func (pl *setPlan) startInsert() {
	pl.mode = pInsert
	pl.stage()
}

// stage allocates the object block, builds its image and the publishing
// atomic, and advances to the WRITE stage — once an armed eviction has
// nothing left in flight (sEvict runs what it has, then comes back here).
// The allocation evicts inline, with a nested serial run, when there is
// no block to be had: an unarmed plan in a full cache, or an armed one
// whose attempt freed nothing of this size. An UPDATE is out of place:
// the new value goes to a fresh block and the CAS re-points the slot (as
// in RACE hashing), under the fingerprint the slot already carries.
func (pl *setPlan) stage() {
	if pl.ev != nil && pl.ev.st != evDone {
		pl.st = sEvict
		return
	}
	c := pl.c
	fp := pl.fp
	if pl.mode == pUpdate {
		fp = pl.updSlot.Atomic.FP()
	}
	pl.now = c.p.Now()
	if pl.held {
		pl.held = false // the block arm took up front is the staged one now
	} else {
		pl.addr = c.allocOrEvict(pl.size)
	}
	pl.buildExt()
	// Every staged image gets a fresh incarnation stamp — unconditionally,
	// because nextVer is a plain counter (no RNG, no verbs) and an
	// unconditional stamp keeps the image layout identical whether or not
	// speculative Gets are enabled.
	pl.ver = c.nextVer()
	pl.data = encodeObjectInto(pl.data, pl.key, pl.value, pl.extBuf, pl.tenant, pl.expiry, pl.ver)
	pl.want = hashtable.EncodeAtomic(fp, hashtable.SizeToBlocks(pl.size), pl.addr)
	pl.st = sWrite
}

// buildExt builds the staged image's extension metadata into extBuf.
func (pl *setPlan) buildExt() {
	c := pl.c
	switch {
	case pl.mode == pUpdate && !pl.expUpd:
		pl.extBuf = c.updateExt(pl.extBuf, pl.updSlot, pl.updDec, pl.size, pl.now)
	case pl.migrate:
		// The extension layout matches across nodes (same expert list), so
		// the old node's expert metadata transfers verbatim; pad or trim
		// defensively in case configurations ever diverge.
		pl.extBuf = grow(pl.extBuf, c.cl.totalExt)
		n := copy(pl.extBuf, pl.mExt)
		clear(pl.extBuf[n:])
	default:
		// An insert — or the supersession of an EXPIRED copy: the lease
		// lapsed, so its access history is void and fresh metadata is
		// staged exactly as for an insert.
		pl.extBuf = c.initExts(pl.extBuf, pl.size, pl.now)
	}
}

// restage rebuilds the extension metadata against the copy a chase
// re-pointed the update at and patches it into the staged image,
// reporting whether the image changed (and so needs its WRITE again).
// Key, value, header stamp and incarnation are the attempt's own and
// stay; the block was never published, so no hint can hold its stamp.
func (pl *setPlan) restage() bool {
	staged := pl.data[objHeader : objHeader+len(pl.extBuf)]
	pl.buildExt()
	if bytes.Equal(staged, pl.extBuf) {
		return false
	}
	copy(staged, pl.extBuf)
	return true
}

// ---------------------------------------------------------------- Delete ----

// delPlan removes every live copy of a key: the key walk with a delete
// CAS for every match. The walk covers BOTH buckets to completion rather
// than stopping at the first match: a reshard's migration window can
// briefly leave two live copies of a key, and deleting only the first
// would let the survivor resurrect it. A lost CAS means someone else
// deleted or replaced that copy — keep going. Its own: the match list
// and the CASes (the serial path CASes each match as it is found, then
// resumes the walk where it left off).
type delPlan struct {
	keyWalk

	matches []delMatch
	mi      int  // matches CASed
	casing  bool // the in-flight group is delete CASes
	rnow    int64

	deleted bool
}

// delMatch is one matched copy: its slot, the tenant it is charged to,
// and whether its lease had lapsed — an expired copy is still CASed away
// and freed, but does not count toward `deleted` (observationally it was
// already gone; the TTL≡Delete property test pins exactly this).
type delMatch struct {
	slot    hashtable.Slot
	tenant  TenantID
	expired bool
}

// reset re-aims the plan at key, keeping its scratch buffers.
func (pl *delPlan) reset(c *Client, key []byte) *delPlan {
	pl.aim(c, key)
	pl.matches, pl.mi = pl.matches[:0], 0
	pl.rnow = c.p.Now()
	pl.deleted = false
	return pl
}

func (pl *delPlan) Step(eager bool) []exec.Verb {
	pl.casing = pl.mi < len(pl.matches)
	if !pl.casing {
		return pl.step(eager)
	}
	pl.verbs = pl.verbs[:0]
	for _, m := range pl.matches[pl.mi:stageEnd(eager, pl.mi, len(pl.matches))] {
		pl.verbs = append(pl.verbs, casVerb(pl.c, m.slot.Addr, m.slot.Atomic, 0))
	}
	return pl.verbs
}

func (pl *delPlan) Absorb(res []exec.Result) {
	if !pl.casing {
		fresh := pl.absorb(res)
		for i := range fresh {
			if cand := &fresh[i]; cand.match {
				pl.matches = append(pl.matches, delMatch{
					slot: cand.slot, tenant: cand.dec.tenant,
					expired: pl.c.cl.tenantMode && cand.dec.expired(pl.rnow),
				})
			}
		}
		return
	}
	for _, r := range res {
		m := pl.matches[pl.mi]
		pl.mi++
		// On a lost CAS race someone else deleted or replaced this copy;
		// keep scanning for further copies either way.
		if r.Swapped {
			pl.c.releaseBlock(m.slot.Atomic, m.slot.Addr, m.tenant)
			pl.deleted = pl.deleted || !m.expired
		}
	}
}

// ------------------------------------------------------------ Copy check ----

// copyPlan is the bare walk as a plan: is there a live copy of the key
// at any slot other than skip?
type copyPlan struct {
	keyWalk
	found bool
}

func (pl *copyPlan) Step(eager bool) []exec.Verb {
	if pl.found {
		return nil
	}
	return pl.step(eager)
}

func (pl *copyPlan) Absorb(res []exec.Result) {
	for _, cand := range pl.absorb(res) {
		pl.found = pl.found || cand.match
	}
}

// hasOtherCopy reports whether a live copy of key exists in its buckets
// at a slot other than exclAddr — the reshard's end-of-window duplicate
// verification, run serially per migrated insert.
func (c *Client) hasOtherCopy(key []byte, exclAddr uint64) bool {
	var pl copyPlan
	pl.aim(c, key)
	pl.skip = exclAddr
	c.runner.Serial.Run(&pl)
	return pl.found
}

// ------------------------------------------------------------- Eviction ----

// evictPlan states.
const (
	evSample = iota
	evExt
	evCAS
	evLWH
	evDone
)

// evictPlan outcomes.
const (
	evictPending = iota
	evictWon     // a victim was reclaimed (block freed, history inserted)
	evictNone    // the sample window held no live object
	evictLost    // the victim CAS lost a race; resample
)

// evictPlan is one sample-based eviction attempt (§4.2) as a verb plan:
// stage the sample-window READ(s) — with the history-ID FAA in the same
// group when adaptive: the ID depends on nothing the sample returns, so
// it costs no round trip of its own, and an attempt that then finds no
// candidate or loses its CAS merely skips an ID (history.go) — stage any
// extension-metadata READs, then, once every expert has nominated and the
// pre-drawn deciding expert picked the victim, the victim CAS (plain
// CAS-to-empty when adaptive caching is off). The sample start and the
// deciding expert are drawn from the client RNG at RESET time, so a batch
// of plans consumes the same random sequence whichever strategy executes
// it — the hinge of the Serial/Doorbell equivalence — and a plan armed
// on a setPlan draws when the store driver arms it.
//
// CAS losses and empty windows finish the plan with that outcome; the
// drivers (evictOne, evictBatch) resample with a fresh plan, bounded by
// evictAttempts. fullScan marks a window that covered the whole table:
// an empty outcome is then definitive (nothing evictable), not a miss
// of the sample.
type evictPlan struct {
	c        *Client
	k        int
	start    int
	window   int
	deciding int
	now      int64 // priority-evaluation time, fixed at reset
	fullScan bool

	// Tenancy: overQ snapshots the over-quota tenant set at reset (one
	// consistent set per batch under either strategy — evictBatch
	// resets every plan before running any); expVictim marks a victim
	// reclaimed because its lease lapsed — a plain CAS-to-empty with no
	// history entry and no expert blamed, the Delete-equivalent form.
	overQ     uint64
	expVictim bool

	st        int
	sampleOps []rdma.BatchOp
	slots     []hashtable.Slot
	cands     []candidate

	victim candidate
	bitmap uint64
	prio   []float64
	histID uint64

	outcome int

	// Pooled scratch, kept across reset: verb-group emission, sample and
	// extension READ delivery buffers, and the per-expert nominee list.
	verbs   []exec.Verb
	sampBuf [][]byte
	extBufs [][]byte
	nomBuf  []int
}

// reset draws the attempt's randomness (window start, then the deciding
// expert — PickExpert depends only on the current weights, not on the
// sample, so it can be drawn up front) and rebuilds the sample verbs into
// the plan's scratch. Reset order therefore fixes the random sequence of
// a batch regardless of execution strategy — and a pooled plan consumes
// the client RNG exactly as a fresh one would; the priority-evaluation
// time is captured here too, so time-dependent experts (LRFU,
// Hyperbolic) rank candidates identically under either strategy.
func (pl *evictPlan) reset(c *Client) *evictPlan {
	pl.c = c
	pl.k = c.cl.opts.SampleK
	pl.window = c.evictWindow()
	pl.now = c.p.Now()
	pl.st = evSample
	pl.slots = pl.slots[:0]
	pl.cands = pl.cands[:0]
	pl.victim = candidate{}
	pl.bitmap = 0
	pl.prio = pl.prio[:0]
	pl.histID = 0
	pl.outcome = evictPending
	n := c.cl.Layout.NumSlots()
	pl.start = c.p.Rand().Intn(n)
	pl.deciding = 0
	if c.adapt != nil {
		pl.deciding = c.adapt.PickExpert(c.p.Rand())
	}
	// Snapshotted AFTER the RNG draws (it consumes none, so the random
	// sequence is untouched) and at reset time, so every plan of a batch
	// judges quotas against the same aggregation.
	pl.overQ = 0
	pl.expVictim = false
	if c.cl.tenantMode {
		pl.overQ = c.cl.overQuotaMask()
	}
	pl.fullScan = pl.window >= n
	pl.sampleOps = c.cl.Layout.AppendSampleOps(pl.sampleOps[:0], pl.start, pl.window)
	for i := range pl.sampleOps {
		b := bufAt(&pl.sampBuf, i)
		*b = grow(*b, pl.sampleOps[i].Len)
		pl.sampleOps[i].Buf = *b
	}
	return pl
}

// evictWindow sizes the sample READ so that ~SampleK live objects are
// expected in it at the table's CURRENT occupancy — sizing against
// ExpectedObjects instead (the design load) made near-empty tables
// sample tiny windows that mostly hold empty slots, burning an attempt
// (and a READ) per resample. The live count is estimated from the heap
// accounting divided by the running victim-size average (seeded at one
// block, so before any eviction the estimate is an upper bound on the
// object count and the window errs small — bounded by resampling). The
// window is clamped to the whole table; a full-table sample that finds
// nothing live is then proof that nothing is evictable.
func (c *Client) evictWindow() int {
	k, n := c.cl.opts.SampleK, c.cl.Layout.NumSlots()
	objBlocks := c.cl.avgVictimBlocks
	if objBlocks < 1 {
		objBlocks = 1
	}
	live := int(float64(c.cl.MN.UsedBytes) / (objBlocks * memnode.BlockSize))
	if live > c.cl.opts.ExpectedObjects {
		live = c.cl.opts.ExpectedObjects
	}
	if live < 1 {
		live = 1
	}
	window := k * (n/live + 1)
	if window > n {
		window = n
	}
	return window
}

func (pl *evictPlan) Step(eager bool) []exec.Verb {
	switch pl.st {
	case evSample:
		// No short-circuit between the (at most two) wrap-around READs,
		// and the history ID waits on neither: one group under either
		// traversal.
		pl.verbs = pl.verbs[:0]
		for _, op := range pl.sampleOps {
			pl.verbs = append(pl.verbs, exec.Verb{EP: pl.c.ep, Op: op})
		}
		if pl.c.adapt != nil {
			pl.verbs = append(pl.verbs, exec.Verb{EP: pl.c.ep, Op: pl.c.hist.NextIDOp()})
		}
		return pl.verbs
	case evExt:
		pl.verbs = pl.c.extVerbs(pl.verbs[:0], pl.cands, &pl.extBufs)
		return pl.verbs
	case evCAS:
		swap := hashtable.AtomicField(0)
		if pl.c.adapt != nil && !pl.expVictim {
			swap = history.EntryFor(pl.victim.slot, pl.histID)
		}
		pl.verbs = append(pl.verbs[:0], casVerb(pl.c, pl.victim.slot.Addr, pl.victim.slot.Atomic, swap))
		return pl.verbs
	case evLWH:
		// DisableLWH ablation (cold): a conventional remote FIFO history
		// costs an actual queue enqueue — FAA the tail, WRITE the entry.
		pl.verbs = append(pl.verbs[:0],
			exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
				Kind: rdma.BatchFAA, Addr: memnode.HistCounterAddr + 8, Delta: 1,
			}},
			exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
				Kind: rdma.BatchWrite, Addr: memnode.HistCounterAddr + 16,
				//dittolint:allow hotalloc (DisableLWH ablation branch: cold, runs only with the flag set)
				Data: make([]byte, 40),
			}})
		return pl.verbs
	default:
		return nil
	}
}

func (pl *evictPlan) Absorb(res []exec.Result) {
	c := pl.c
	switch pl.st {
	case evSample:
		if c.adapt != nil {
			pl.histID = c.hist.AbsorbID(res[len(res)-1].Old)
			res = res[:len(res)-1]
		}
		for i, r := range res {
			pl.slots = c.cl.Layout.AppendSlots(pl.slots, pl.sampleOps[i].Addr, r.Data)
		}
		c.Stats.SampledSlots += int64(len(pl.slots))
		for _, s := range pl.slots {
			if cand, ok := c.liveCandidate(s); ok {
				pl.cands = append(pl.cands, cand)
			}
		}
		if len(pl.cands) == 0 {
			pl.outcome = evictNone
			pl.st = evDone
			return
		}
		if c.needsExtRead() {
			pl.st = evExt
			return
		}
		pl.nominate()
	case evExt:
		for i, r := range res {
			c.applyExt(&pl.cands[i], r.Data)
		}
		pl.nominate()
	case evCAS:
		if !res[0].Swapped {
			pl.outcome = evictLost // raced with another client; resample
			pl.st = evDone
			return
		}
		// The won CAS is the transfer of ownership: the victim is settled
		// (block freed, counted) here and now, so an attempt dropped after
		// this group owns nothing.
		if c.adapt != nil && !pl.expVictim {
			c.hist.FinishInsert(pl.victim.slot.Addr, pl.bitmap)
		}
		pl.finishWin()
		if c.adapt != nil && !pl.expVictim && c.cl.opts.DisableLWH {
			pl.st = evLWH // one more round, of timing only
		}
	case evLWH:
		pl.st = evDone
	}
}

// resample reports whether the attempt ended in a way that calls for a
// fresh sample: it lost its victim CAS, or its window — short of the whole
// table — held nothing live.
func (pl *evictPlan) resample() bool {
	return pl.outcome == evictLost || pl.outcome == evictNone && !pl.fullScan
}

// nominate runs the local half of the attempt once the sample (and any
// extension metadata) is in: every expert nominates its lowest-priority
// candidate, the pre-drawn deciding expert's nominee becomes the victim,
// and the expert bitmap records who shares the blame. Advances to the
// victim CAS.
func (pl *evictPlan) nominate() {
	c := pl.c
	// The paper samples K OBJECTS; the window covers more slots so K live
	// ones are expected — trim any surplus, as the hand-written path did.
	if len(pl.cands) > pl.k {
		pl.cands = pl.cands[:pl.k]
	}
	if c.cl.tenantMode {
		// An expired lease is reclaimed with a plain CAS-to-empty — no
		// history entry, no expert blamed — observationally the same
		// removal an explicit Delete would have done.
		exp, over := tenantVictims(pl.cands, pl.now, pl.overQ)
		if exp >= 0 {
			pl.victim = pl.cands[exp]
			pl.expVictim = true
			pl.st = evCAS
			return
		}
		// A sample with no over-quota candidate while some tenant is over
		// quota is treated like a lost CAS and resampled (the over-quota
		// tenant's usage exceeds its quota, so victims exist somewhere in
		// the table); only a FULL-table scan with none proves no such
		// victim remains, and then the global policy may run over
		// whatever is left.
		if len(over) > 0 {
			pl.cands = over
		} else if pl.overQ != 0 && !pl.fullScan {
			pl.outcome = evictLost
			pl.st = evDone
			return
		}
	}
	pl.nomBuf, pl.prio = pl.nomBuf[:0], pl.prio[:0]
	for e := range c.experts {
		best, p := c.lowestPriority(e, pl.cands, pl.now)
		pl.nomBuf = append(pl.nomBuf, best)
		pl.prio = append(pl.prio, p)
	}
	nominee := pl.nomBuf
	pl.victim = pl.cands[nominee[pl.deciding]]
	// Expert bitmap: every expert whose nominee is this victim shares the
	// blame if the eviction turns out to be a regret.
	for e := range c.experts {
		if pl.cands[nominee[e]].slot.Addr == pl.victim.slot.Addr {
			pl.bitmap |= 1 << uint(e)
		}
	}
	pl.st = evCAS
}

// finishWin applies the local effects of a won eviction: expert
// penalties-on-evict, then the victim's settlement (settleVictim).
func (pl *evictPlan) finishWin() {
	c := pl.c
	for e, a := range c.experts {
		if pl.bitmap&(1<<uint(e)) == 0 {
			continue
		}
		if obs, ok := a.(cachealgo.EvictionObserver); ok {
			obs.OnEvict(pl.prio[e])
		}
	}
	c.settleVictim(pl.victim)
	pl.outcome = evictWon
	pl.st = evDone
}

// ------------------------------------------------------------- Migration ----

// migratePlan outcomes.
const (
	migPending  = iota // not finished: still running, or dropped by a run a node failed under
	migMoved           // insert published, survived the sweep, source removed
	migSkipped         // destination copy was newer (or ours yielded); source removal was GC
	migRetry           // the source slot changed under the copy: re-read and redo
	migFallback        // destination complication (lost CAS): retry the slot
)

// migratePlan moves one live object between memory nodes: the
// destination's insert-if-absent setPlan (migrate mode, including the
// post-publish duplicate sweep), then the source delete CAS that verifies
// the copy did not change while in flight. If that CAS fails — the key
// was concurrently deleted, evicted, or replaced — the fresh insert is
// undone with a precise CAS so a dead value can never resurface.
type migratePlan struct {
	src *Client
	s   hashtable.Slot
	ins *setPlan

	st       int // 0 insert phase, 1 source CAS, 2 done
	inserted bool
	outcome  int
}

// newMigratePlan copies the object out of the scan's READ buffer and
// aims the destination's insert-if-absent at it, carrying the access
// metadata — and the tenant/lease header stamp — the key had on its old
// memory node. Migrate plans are cold-path resharder work owned by
// transient clients, so they are built fresh, not pooled.
func newMigratePlan(src, dst *Client, s hashtable.Slot, dec decodedObject) *migratePlan {
	ins := new(setPlan).reset(dst, append([]byte(nil), dec.key...), append([]byte(nil), dec.value...))
	ins.migrate = true
	ins.mExt = append([]byte(nil), dec.ext...)
	ins.mInsertTs, ins.mLastTs, ins.mFreq = s.InsertTs, s.LastTs, s.Freq
	ins.tenant, ins.expiry = dec.tenant, dec.expiry
	return &migratePlan{src: src, s: s, ins: ins}
}

func (pl *migratePlan) Step(eager bool) []exec.Verb {
	if pl.st != 0 {
		return nil
	}
	if vs := pl.ins.Step(eager); len(vs) > 0 {
		return vs
	}
	switch pl.ins.outcome {
	case setDone:
		pl.inserted = true
	case setPresent:
		pl.inserted = false
	default: // setCASLost: the driver retries the slot serially
		pl.outcome = migFallback
		pl.st = 2
		return nil
	}
	pl.st = 1
	//dittolint:allow hotalloc (migrate plans are cold-path resharder work and are not pooled — see newMigratePlan)
	return []exec.Verb{casVerb(pl.src, pl.s.Addr, pl.s.Atomic, 0)}
}

func (pl *migratePlan) Absorb(res []exec.Result) {
	if pl.st == 0 {
		pl.ins.Absorb(res)
		return
	}
	pl.st = 2
	if res[0].Swapped {
		// The moved copy's bytes leave the SOURCE node's accounting (the
		// destination charged them at its insert CAS).
		pl.src.releaseBlock(pl.s.Atomic, pl.s.Addr, pl.ins.tenant)
		// inserted=false here means the destination already held a newer
		// client-written copy: the source removal is garbage collection,
		// not a migration.
		if pl.inserted {
			pl.outcome = migMoved
		} else {
			pl.outcome = migSkipped
		}
		return
	}
	// The source slot changed while we copied it: if we inserted, our copy
	// is stale — take it back. The driver re-reads the slot and redoes the
	// copy with the fresh value (or gives up if the key is gone).
	if pl.inserted {
		pl.ins.c.dropMigrated(pl.ins.slotAddr, pl.ins.want, pl.ins.tenant)
	}
	pl.outcome = migRetry
}
