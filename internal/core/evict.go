package core

import (
	"encoding/binary"

	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/rdma"
)

// candidate pairs a sampled slot with the metadata view the priority
// functions consume — plus, in tenant mode, the owning tenant and lease
// expiry parsed from the object header the ext READ covers.
type candidate struct {
	slot   hashtable.Slot
	meta   cachealgo.Metadata
	tenant TenantID
	expiry int64
}

// evictOne performs one sample-based eviction (§4.2): sample a window of
// slots with one READ, let every expert nominate its lowest-priority
// candidate, pick the deciding expert by weight, evict its nominee, and
// (when adaptive) convert the victim's slot into a lightweight history
// entry. The verb sequence is the evictPlan in plan.go — the same plan
// the background reclaimer and the over-budget drains run as doorbell
// batches, and the one a serial Set prefetches beside its own walk
// (Client.arm) — traversed serially here, for the writes left to evict
// inline (allocOrEvict).
//
// It returns false when no object could be evicted after bounded
// resampling (e.g. an empty cache).
func (c *Client) evictOne() bool { return c.evictBatch(1, exec.Serial) == 1 }

// evictBatch reclaims up to n victims with evict plans executed under
// strat: exec.Doorbell samples several windows and CASes several victims
// per round (one doorbell per stage across the batch), exec.Serial runs
// the same plans one after another, one group per round trip. CAS losers
// and empty windows resample in later rounds, bounded by evictAttempts
// plan executions in total; a full-table sample that found nothing live
// ends the batch early — nothing is evictable. Returns the number of
// victims reclaimed.
func (c *Client) evictBatch(n int, strat exec.Strategy) int {
	won, attempts := 0, 0
	for won < n && attempts < evictAttempts {
		m := n - won
		if rem := evictAttempts - attempts; m > rem {
			m = rem
		}
		// Pooled plans on the eviction-specific scratch (runEv): inline
		// eviction can fire while a batched pass's doorbell round is
		// mid-absorb, so it shares no slice with the pass.
		plans := c.evPlans[:0]
		run := c.runEv[:0]
		for i := 0; i < m; i++ {
			pl := c.evs.get().reset(c)
			plans = append(plans, pl)
			run = append(run, pl)
		}
		c.evPlans, c.runEv = plans, run
		attempts += m
		c.runner.RunPlans(strat, run)
		exhausted := false
		for _, pl := range plans {
			switch {
			case pl.outcome == evictWon:
				won++
			case pl.resample():
				c.Stats.EvictResamples++
			case pl.outcome == evictNone:
				// The sample covered every slot and found nothing live:
				// nothing further is evictable. Finish counting this
				// round's wins (later plans in the batch may still have
				// reclaimed something) before giving up.
				exhausted = true
			}
		}
		for _, pl := range plans {
			c.evs.put(pl)
		}
		if exhausted {
			return won
		}
	}
	return won
}

// drainOverBudget evicts until the node is back under budget, reclaiming
// up to max victims, with rounds sized by the remaining deficit and the
// running victim-size estimate — so a heap shrunk by many blocks frees
// them as multi-victim doorbell rounds instead of one victim per RTT
// chain. With a background reclaimer enabled the inline work is skipped
// entirely: the drain kicks the reclaimer and lets the write proceed.
func (c *Client) drainOverBudget(max int) {
	if !c.cl.MN.OverBudget() {
		return
	}
	if c.cl.reclaimEnabled {
		c.cl.kickReclaimer()
		return
	}
	for done := 0; done < max && c.cl.MN.OverBudget(); {
		n := c.cl.victimsFor(-c.cl.MN.FreeBytes())
		if n > max-done {
			n = max - done
		}
		got := c.evictBatch(n, c.cl.Strategy)
		if got == 0 {
			return
		}
		done += got
	}
}

// liveCandidate filters one sampled slot down to an eviction candidate
// with the default metadata view attached — the one definition of the
// slot filter and the metadata/frequency convention, shared by the
// evictPlan's sample stage and the setPlan's displacement.
func (c *Client) liveCandidate(s hashtable.Slot) (candidate, bool) {
	if s.Atomic.IsEmpty() || s.Atomic.IsHistory() {
		return candidate{}, false
	}
	// Frequency convention (shared with noteHit/updateExt): remote
	// snapshot plus the buffered delta. Sampling is not an access, so
	// no +1 and no fc.Add here.
	return candidate{slot: s, meta: cachealgo.Metadata{
		Size:     s.Atomic.SizeBytes(),
		InsertTs: s.InsertTs,
		LastTs:   s.LastTs,
		Freq:     s.Freq + c.fc.PendingDelta(s.Addr),
	}}, true
}

// needsExtRead reports whether candidates cost one more READ each:
// extension metadata is configured, the DisableSFHT ablation stores ALL
// metadata with the object, or tenant mode needs each candidate's
// header (tenant tag + lease expiry) for quota/TTL-aware nomination.
func (c *Client) needsExtRead() bool {
	return c.cl.opts.DisableSFHT || c.cl.tenantMode || c.cl.totalExt > 0
}

// extReadOp is that READ — the one definition of its addressing —
// and applyExt attaches its completion to the candidate. Tenant mode
// uses the header-inclusive shape: the same single fixed-size READ per
// candidate, widened by the 24-byte header.
func (c *Client) extReadOp(s hashtable.Slot) rdma.BatchOp {
	if c.cl.opts.DisableSFHT || c.cl.tenantMode {
		// Metadata stored with objects: the READ covers the header too.
		return rdma.BatchOp{
			Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: objHeader + c.cl.totalExt,
		}
	}
	return rdma.BatchOp{
		Kind: rdma.BatchRead, Addr: s.Atomic.Pointer() + objHeader, Len: c.cl.totalExt,
	}
}

func (c *Client) applyExt(cand *candidate, data []byte) {
	if c.cl.opts.DisableSFHT || c.cl.tenantMode {
		if c.cl.tenantMode {
			cand.tenant = TenantID(data[objTenantOff])
			cand.expiry = int64(binary.LittleEndian.Uint64(data[objExpiryOff:]))
		}
		if c.cl.totalExt > 0 {
			cand.meta.Ext = data[objHeader:]
		}
		return
	}
	cand.meta.Ext = data
}

// tenantVictims is THE tenant victim filter, shared by the sampled
// eviction (evictPlan.nominate) and the displacement out of two full
// buckets (setPlan.pickVictim): lease expiry
// first — a lapsed entry is dead weight no policy should out-rank, so
// the index of the first candidate whose lease expired by now is
// returned (else -1) — then quota enforcement: while any tenant is over
// quota (overQ, a mask of tenant bits), the experts nominate only among
// over-quota candidates, so an over-quota tenant can never displace an
// in-quota one that has victims available. over is cands compacted in
// place to those candidates; when it is empty cands is untouched.
func tenantVictims(cands []candidate, now int64, overQ uint64) (expired int, over []candidate) {
	for i := range cands {
		if ex := cands[i].expiry; ex != 0 && ex <= now {
			return i, nil
		}
	}
	n := 0
	for i := range cands {
		if overQ&(1<<uint(cands[i].tenant)) != 0 {
			cands[n] = cands[i]
			n++
		}
	}
	return -1, cands[:n]
}

// lowestPriority returns expert e's nominee among cands — the index and
// priority of the candidate it ranks lowest at time now.
func (c *Client) lowestPriority(e int, cands []candidate, now int64) (best int, bestP float64) {
	a, off := c.experts[e], c.extOff[e]
	best = -1
	m := &c.extMeta // a local would escape through the interface call: one allocation per candidate
	for i := range cands {
		*m = cands[i].meta
		if a.ExtSize() > 0 {
			m.Ext = m.Ext[off : off+a.ExtSize()]
		}
		if p := a.Priority(m, now); best < 0 || p < bestP {
			best, bestP = i, p
		}
	}
	return best, bestP
}

// settleVictim applies the local effects of a claimed eviction victim
// (its CAS won — the sampled eviction's own, or the publishing CAS that
// displaced it): the block's release, the victim-size estimate, the
// counter, and the hot-key hook that lets the replication layer demote
// an entry whose primary copy was just evicted.
func (c *Client) settleVictim(v candidate) {
	c.releaseBlock(v.slot.Atomic, v.slot.Addr, v.tenant)
	c.cl.noteVictimBlocks(int(v.slot.Atomic.SizeBlocks()))
	c.Stats.Evictions++
	if c.cl.onEvictHash != nil {
		c.cl.onEvictHash(v.slot.Hash)
	}
}

// report delivers an operation sample to the installed observer.
func (c *Client) report(op OpKind, start int64, hit bool) {
	if c.OnOp != nil {
		c.OnOp(op, c.p.Now()-start, hit)
	}
}
