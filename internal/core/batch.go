package core

// Doorbell-batched multi-key operations. Real cache front ends fetch and
// store keys in batches, and Ditto's verb budget (§4.1) makes each key
// cheap — but a round trip per key still serializes on the network RTT.
// MGet, MSet and MDelete run the SAME verb plans as Get, Set and Delete
// (plan.go), only under the exec.Doorbell strategy: each pipeline stage
// across the batch is posted with ONE RNIC doorbell per memory node, so the
// verbs' completions overlap and a whole stage costs its RNIC service time
// plus a single RTT.
//
//	MGet:    1 doorbell (all bucket READs) + 1 doorbell (all object READs)
//	MSet:    3 doorbells (bucket READs, candidate object READs, object
//	         WRITEs + publishing CASes)
//	MDelete: up to 3 doorbells (bucket READs, object READs, delete CASes)
//
// The budget is per BATCH, not per owner. A batch is a fan (below): every
// owning node's share is a group, and a pass — stage each group's pooled
// plans, run them, consume them — runs ALL groups' plans as one doorbell
// pipeline on the caller's runner: one doorbell per owner per round, the
// rounds shared, so a batch over N memory nodes costs its slowest owner's
// rounds, not the sum of N pipelines. A single Cluster's client is the fan
// with one group; MultiClient's routed pipelines (multi.go) hand it one
// group per owner.
//
// Races are resolved by the same plans as in the serial paths, and a
// complication costs rounds the whole batch shares, never per-key round
// trips: a rejected speculative image continues into the walk, a lost
// publishing CAS chases the winner's image and an insert into full buckets
// displaces an occupant inside the plan and its Run (plan.go); what a pass
// leaves unsettled — a stale snapshot, a CAS lost to something that is not
// the key — is re-run together as the next pass, in key/pair order, under the
// serial drivers' own bounds (getRetries, storeAttempts) and behind one
// back-off draw per pass. An MSet stores a key ONCE: a pair that a later
// pair of the same key follows in the call would only be overwritten by it
// — and, sharing the pass, would lose its publishing CAS to it or win it
// and be chased — so it runs no plan at all (setBatch.stage). Batched and
// serial operations stay observably equivalent. Every key reports the
// BATCH's elapsed time as its latency: the call returns them together, so
// that is what the caller waited for.

import (
	"bytes"
	"fmt"

	"ditto/internal/exec"
	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// KV is one key/value pair of an MSet batch.
type KV struct {
	Key, Value []byte
}

// group is one owner's share of a batch: the per-node client that runs it
// and the indices into the caller's slices it covers — so a share needs no
// gathered sub-batch and results land where the caller returns them.
type group struct {
	c    *Client // nil: the owner has left the pool, nothing runs
	node int     // the owner's node ID (a routed batch's)
	idxs []int   // the whole share
	todo []int   // what the next pass (re-)runs of it
	lost bool    // the owner fail-stopped under the batch: todo's outcomes are unknowable
}

// fan is THE batched driver: the groups of the batch in flight, the
// doorbell runner their passes share and the plans of the pass being run.
// Each Client owns one (a single group, its own runner), each MultiClient
// one (a group per owning node, in ascending node order).
type fan struct {
	p      *sim.Proc
	db     *exec.DoorbellRunner
	mc     *MultiCluster // the pool whose ring routed the groups; nil on a single Cluster
	epoch  uint64        // routing epoch the groups were formed under
	groups []group
	plans  []exec.Plan
	err    error // first node failure that lost a group

	// The operation in flight, kept here so handing it to the driver as a
	// batchOp allocates nothing.
	get getBatch
	set setBatch
	del delBatch
}

// batchOp is what differs between the three operations: the reference
// strategy (exec.Serial: g's keys one operation at a time, verb for verb
// what Get/Set/Delete issue — a single-key operation is that batch of
// one), and the two halves of a Doorbell pass on one group — stage pooled
// plans for g.todo onto f.plans; consume them once run: settled results,
// the plans back in their pools, and in g.todo what the next pass re-runs.
type batchOp interface {
	serial(f *fan, g *group, attempt int)
	stage(f *fan, g *group, attempt int)
	consume(f *fan, g *group, attempt int)
}

// solo aims the client's fan at the whole of an n-element batch.
func (c *Client) solo(n int) *fan {
	for i := len(c.idxAll); i < n; i++ {
		c.idxAll = append(c.idxAll, i)
	}
	f := &c.fan
	f.err = nil
	f.groups = append(f.groups[:0], group{c: c, idxs: c.idxAll[:n], todo: c.idxAll[:n]})
	return f
}

// moved reports whether the ring has switched since the groups were formed:
// every routing decision not yet issued is stale then. Writes and removes
// ask once per pass — a pass is the span a single Set's decision has — and
// leave the rest to their router; reads need not (a stale owner answers
// with a miss, which the router's own re-check re-routes).
func (f *fan) moved() bool { return f.mc != nil && f.mc.snap().epoch != f.epoch }

// runnable reports whether g has something left to run and an owner to run
// it on.
func (g *group) runnable() bool { return g.c != nil && !g.lost && len(g.todo) > 0 }

func (f *fan) pending() bool {
	for gi := range f.groups {
		if f.groups[gi].runnable() {
			return true
		}
	}
	return false
}

// lose gives up on g: its owner fail-stopped. What earlier passes settled
// stays settled, the plans in flight go back to their pools unconsumed.
func (f *fan) lose(g *group, err error) {
	g.lost = true
	g.c.unstage()
	if f.err == nil {
		f.err = err
	}
}

// each applies one phase of op to every runnable group, in group order. An
// owner that fail-stops under its phase — a nested verb: an inline
// eviction, a regret-collection READ — loses its group only.
func (f *fan) each(op batchOp, phase func(batchOp, *fan, *group, int), attempt int) {
	for gi := range f.groups {
		if g := &f.groups[gi]; g.runnable() {
			//dittolint:allow hotalloc (non-escaping closure: stack-allocated; allocs_test pins the batched rows)
			if err := rdma.CatchUnreachable(func() { phase(op, f, g, attempt) }); err != nil {
				f.lose(g, err)
			}
		}
	}
}

// pass is one Doorbell pass over the runnable groups: stage every group's
// plans, run them ALL in one Doorbell.Run — one doorbell per owner per
// round, rounds shared — and consume per group. A node that fail-stops
// under the run takes its own group with it: the runner finishes every plan
// whose verbs went to live nodes (they absorb and settle as if the dead
// node had not been in the batch) before it raises, so no plan is left with
// a staged, unpublished block on a live node.
func (f *fan) pass(op batchOp, attempt int) {
	f.plans = f.plans[:0]
	f.each(op, batchOp.stage, attempt)
	//dittolint:allow hotalloc (non-escaping closure: stack-allocated; allocs_test pins the batched rows)
	err := rdma.CatchUnreachable(func() { f.db.Run(f.plans) })
	clear(f.plans)
	if err != nil {
		for gi := range f.groups {
			if g := &f.groups[gi]; g.runnable() && g.c.ep.Node().Down() {
				f.lose(g, err)
			}
		}
	}
	f.each(op, batchOp.consume, attempt)
}

// unstage returns whatever plans a pass left in flight to their pools.
// Under doorbell dedup one plan's READ result can alias another plan of
// the same client's buffer, so the consume halves call it only once the
// group's outputs are all copied out (pool.go rule 1).
func (c *Client) unstage() {
	c.getPlans = c.gets.putAll(c.getPlans)
	c.setPlans = c.sets.putAll(c.setPlans)
	c.delPlans = c.dels.putAll(c.delPlans)
}

// ------------------------------------------------------------------ MGet ----

// MGet fetches a batch of keys. An all-hit batch costs exactly two
// doorbell batches — every bucket READ, then every object READ — instead
// of two round trips per key; per-key hit handling (stats, frequency,
// last_ts, expert extensions) is identical to Get's. With a location
// cache enabled, hinted keys' plans start with their speculative stage:
// the hinted object READs join the unhinted keys' bucket READs in the
// SAME first doorbell, so an all-hinted all-valid batch costs exactly ONE
// doorbell, and a rejected hint's walk shares the following rounds.
func (c *Client) MGet(keys [][]byte) ([][]byte, []bool) {
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	f := c.solo(len(keys))
	f.mget(exec.Doorbell, keys, vals, oks, false, nil)
	raise(f.err)
	return vals, oks
}

// getBatch is a read of keys[i] into vals[i]/oks[i]. probe silences
// misses (no counters, no regrets, no observer report), exactly as get's
// — MultiClient's forwarding window and replica spreading probe with it.
type getBatch struct {
	keys, vals [][]byte
	oks        []bool
	probe      bool
	start      int64
}

// mget runs the read and appends to left the keys still missing whose miss
// no client counted: every miss of a probe, and of a counting read the
// shares that could not run — their owner has left the pool, or fail-stopped:
// the copy the verbs were chasing died with the node, which is what a miss
// means, and the router's epoch re-check re-routes it (CrashNode bumps the
// epoch) to the key's surviving owner.
//
// Passes, exactly as Client.walk's attempts: the first runs every key
// (hinted ones speculatively), each further one re-runs together the keys
// whose snapshot raced a concurrent update (rare), until getRetries
// attempts leave what is still stale a miss.
func (f *fan) mget(strat exec.Strategy, keys, vals [][]byte, oks []bool, probe bool, left []int) []int {
	f.get = getBatch{keys: keys, vals: vals, oks: oks, probe: probe, start: f.p.Now()}
	if strat == exec.Serial {
		f.each(&f.get, batchOp.serial, 0)
	} else {
		for attempt := 0; f.pending(); attempt++ {
			f.pass(&f.get, attempt)
		}
	}
	for gi := range f.groups {
		if g := &f.groups[gi]; probe || g.c == nil || g.lost {
			for _, i := range g.idxs {
				if !oks[i] {
					left = append(left, i)
				}
			}
		}
	}
	return left
}

func (b *getBatch) serial(_ *fan, g *group, _ int) {
	for _, i := range g.todo {
		b.vals[i], b.oks[i] = g.c.get(b.keys[i], b.probe, nil)
	}
	g.todo = nil
}

func (b *getBatch) stage(f *fan, g *group, attempt int) {
	c := g.c
	c.getPlans = c.getPlans[:0]
	for _, i := range g.todo {
		pl := c.gets.get().reset(c, b.keys[i], attempt == 0)
		c.getPlans, f.plans = append(c.getPlans, pl), append(f.plans, pl)
	}
}

func (b *getBatch) consume(_ *fan, g *group, attempt int) {
	c := g.c
	stale := c.retryIdx[:0]
	for j, pl := range c.getPlans {
		i := g.todo[j]
		if pl.stale && !pl.hit && attempt+1 < getRetries {
			stale = append(stale, i)
			continue
		}
		b.vals[i], b.oks[i] = c.finishGet(b.start, pl, b.probe, nil)
	}
	c.unstage()
	c.retryIdx, g.todo = stale, stale
}

// ------------------------------------------------------------------ MSet ----

// MSet stores a batch of key/value pairs with three doorbell batches
// (bucket READs, candidate object READs, object WRITEs + publishing
// CASes). Each key runs the same setPlan one Set attempt would, once, with
// the value of its last pair — update-in-place when the key's current copy
// is found, else an insert into the first reclaimable slot, preferring the
// main bucket, chasing a lost publish CAS inside the batch's own rounds —
// and the pairs an attempt could not settle (a chase that met another key,
// a displaced occupant a rival took first) are re-run together, so batched
// and serial stores behave identically under contention.
func (c *Client) MSet(pairs []KV) {
	f := c.solo(len(pairs))
	f.mset(exec.Doorbell, pairs, nil)
	raise(f.err)
}

// setBatch is a store of pairs[i].
type setBatch struct {
	pairs []KV
	start int64
}

// mset runs the store and appends to left the pairs it did not settle for
// their router to re-route: a share whose owner fail-stopped under it (none
// of its outcomes are knowable — f.err has the failure), and whatever a
// ring switch found not yet stored at a pass boundary.
//
// Passes, as the serial store driver's attempts: the unsettled pairs
// re-run together, in pair order, behind ONE back-off draw per pass.
func (f *fan) mset(strat exec.Strategy, pairs []KV, left []int) []int {
	f.set = setBatch{pairs: pairs, start: f.p.Now()}
	if strat == exec.Serial {
		if !f.moved() {
			f.each(&f.set, batchOp.serial, 0)
		}
	} else {
		for attempt := 0; f.pending(); attempt++ {
			if attempt == storeAttempts {
				panic(fmt.Errorf("%w: MSet retries exhausted (table misconfigured?)", ErrNoProgress))
			}
			if attempt > 0 {
				backOff(f.p)
			}
			if f.moved() {
				break
			}
			f.pass(&f.set, attempt)
		}
	}
	for gi := range f.groups {
		left = append(left, f.groups[gi].todo...)
	}
	return left
}

func (b *setBatch) serial(_ *fan, g *group, _ int) {
	for _, i := range g.todo {
		g.c.Set(b.pairs[i].Key, b.pairs[i].Value)
	}
	g.todo = nil
}

// stage resets one pooled plan per pair; only the LAST pair of a key joins
// the run. Every pair of the call carries the same tenant and lease, so
// the last one's value is all a sequence of Sets would leave; a superseded
// pair issues no verb, touches neither the slot's metadata nor the
// location hint, and is accounted in consume.
func (b *setBatch) stage(f *fan, g *group, attempt int) {
	c := g.c
	if attempt == 0 {
		// Same over-budget drain budget a sequence of len(todo) Sets would
		// have, so batched writes shrink an over-budget heap at the same rate
		// as sequential ones — and, like them, as multi-victim doorbell
		// rounds when the deficit spans more than one block.
		// (First, so a node failure under it finds nothing staged.)
		c.drainOverBudget(shrinkEvictBatch * len(g.todo))
	}
	c.setPlans = c.setPlans[:0]
	for _, i := range g.todo {
		c.setPlans = append(c.setPlans, c.sets.get().reset(c, b.pairs[i].Key, b.pairs[i].Value))
	}
	c.supersede()
	for _, pl := range c.setPlans {
		if pl.outcome != setSuperseded {
			f.plans = append(f.plans, pl)
		}
	}
}

// supersede marks every staged plan that a later one of the same key
// follows, through an open-addressed table over the key hashes the plans
// already computed (client-owned scratch: entry = plan position + 1).
func (c *Client) supersede() {
	plans := c.setPlans
	if len(plans) < 2 {
		return
	}
	size := 4
	for size < 2*len(plans) {
		size <<= 1
	}
	if cap(c.dupTab) < size {
		c.dupTab = make([]int32, size)
	}
	tab := c.dupTab[:size]
	clear(tab)
	for j, pl := range plans {
		h := int(pl.kh) & (size - 1)
		for ; tab[h] != 0; h = (h + 1) & (size - 1) {
			if prev := plans[tab[h]-1]; prev.kh == pl.kh && bytes.Equal(prev.key, pl.key) {
				prev.outcome = setSuperseded
				break
			}
		}
		tab[h] = int32(j + 1)
	}
}

func (b *setBatch) consume(_ *fan, g *group, _ int) {
	c := g.c
	again := c.retryIdx[:0]
	for j, pl := range c.setPlans {
		switch {
		case pl.outcome == setSuperseded:
			c.Stats.Sets++
			c.report(OpSet, b.start, true)
		case c.settle(pl, true, b.start):
			c.Stats.Sets++
		default:
			again = append(again, g.todo[j])
		}
	}
	c.unstage()
	c.retryIdx, g.todo = again, again
}

// --------------------------------------------------------------- MDelete ----

// MDelete removes a batch of keys with up to three doorbell batches
// (bucket READs, object READs, delete CASes), running the same delPlan a
// serial Delete traverses. The returned flags report, per key, whether a
// copy was deleted — exactly what the corresponding sequence of Delete
// calls would have returned.
func (c *Client) MDelete(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	f := c.solo(len(keys))
	f.mdelete(exec.Doorbell, keys, out, nil)
	raise(f.err)
	return out
}

// delBatch is a removal of keys[i], setting out[i] when a copy was deleted
// (and leaving it alone otherwise, so a caller clearing several nodes
// accumulates "any copy deleted"; nil: nobody asks).
type delBatch struct {
	keys [][]byte
	out  []bool
}

// mdelete runs the removal — delPlans have no fallback edges, so one pass
// settles every key — and appends to left the keys a ring switch left
// unissued. A node that left the pool has nothing to clear, and one that
// fail-stops mid-delete achieves the deletion by dying: its copy is gone
// either way, so a lost share degrades to "nothing was there".
func (f *fan) mdelete(strat exec.Strategy, keys [][]byte, out []bool, left []int) []int {
	f.del = delBatch{keys: keys, out: out}
	switch {
	case f.moved():
	case strat == exec.Serial:
		f.each(&f.del, batchOp.serial, 0)
	default:
		f.pass(&f.del, 0)
	}
	for gi := range f.groups {
		if g := &f.groups[gi]; g.runnable() {
			left = append(left, g.todo...)
		}
	}
	return left
}

func (b *delBatch) serial(_ *fan, g *group, _ int) {
	for _, i := range g.todo {
		if g.c.Delete(b.keys[i]) && b.out != nil {
			b.out[i] = true
		}
	}
	g.todo = nil
}

func (b *delBatch) stage(f *fan, g *group, _ int) {
	c := g.c
	c.delPlans = c.delPlans[:0]
	for _, i := range g.todo {
		if c.loc != nil {
			c.loc.Drop(b.keys[i])
		}
		pl := c.dels.get().reset(c, b.keys[i])
		c.delPlans, f.plans = append(c.delPlans, pl), append(f.plans, pl)
	}
}

func (b *delBatch) consume(_ *fan, g *group, _ int) {
	c := g.c
	for j, pl := range c.delPlans {
		c.Stats.Deletes++
		if pl.deleted && b.out != nil {
			b.out[g.todo[j]] = true
		}
	}
	c.unstage()
	g.todo = nil
}
