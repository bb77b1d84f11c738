package core

// Doorbell-batched multi-key operations. Real cache front ends fetch and
// store keys in batches, and Ditto's verb budget (§4.1) makes each key
// cheap — but a round trip per key still serializes on the network RTT.
// MGet, MSet and MDelete run the SAME verb plans as Get, Set and Delete
// (plan.go), only under the exec.Doorbell strategy: each pipeline stage
// across the batch is posted with ONE RNIC doorbell, so the verbs'
// completions overlap and a whole stage costs its RNIC service time plus
// a single RTT.
//
//	MGet:    1 doorbell (all bucket READs) + 1 doorbell (all object READs)
//	MSet:    3 doorbells (bucket READs, candidate object READs, object
//	         WRITEs + publishing CASes)
//	MDelete: up to 3 doorbells (bucket READs, object READs, delete CASes)
//
// Races are resolved by the same plans as in the serial paths, and a
// complication costs rounds the whole batch shares, never per-key round
// trips: a rejected speculative image continues into the walk, a lost
// publishing CAS chases the winner's image and an insert into full buckets
// displaces an occupant inside the plan and its Run (plan.go); what a pass
// leaves unsettled — a stale snapshot, a CAS lost to something that is not
// the key — is re-run together as the next pass, in key/pair order, under the
// serial drivers' own bounds (getRetries, storeAttempts) and behind one
// back-off draw per pass. Batched and serial operations stay observably
// equivalent. Every key reports the BATCH's elapsed time as its latency:
// the call returns them together, so that is what the caller waited for.

import (
	"fmt"

	"ditto/internal/exec"
)

// KV is one key/value pair of an MSet batch.
type KV struct {
	Key, Value []byte
}

// The unexported forms (mget, mset, mdelete) are what MultiClient's routed
// pipelines run per owning node: they address the batch through a list
// of indices into the caller's own slices — so a per-node group needs no
// gathered sub-batch and results land where the caller returns them —
// and take the strategy, so a single-key operation is the same call as a
// batch of one traversed under exec.Serial (the §4.1 verb budget).

// allIdx returns the identity index list [0, n) from client scratch.
func (c *Client) allIdx(n int) []int {
	for i := len(c.idxAll); i < n; i++ {
		c.idxAll = append(c.idxAll, i)
	}
	return c.idxAll[:n]
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
	c.mget(keys, c.allIdx(len(keys)), vals, oks, false, exec.Doorbell)
	return vals, oks
}

// mget fetches keys[i] for every i in idxs into vals[i]/oks[i].
// probe=true silences misses (no counters, no regrets, no observer
// report), exactly as get's — MultiClient's forwarding window and
// replica spreading probe with it.
func (c *Client) mget(keys [][]byte, idxs []int, vals [][]byte, oks []bool, probe bool, strat exec.Strategy) {
	if strat == exec.Serial {
		for _, i := range idxs {
			vals[i], oks[i] = c.get(keys[i], probe, nil)
		}
		return
	}
	start := c.p.Now()
	// Passes, exactly as Client.walk's attempts: the first runs every key
	// (hinted ones speculatively), each further one re-runs together the
	// keys whose snapshot raced a concurrent update (rare), until
	// getRetries attempts leave what is still stale a miss.
	for attempt := 0; len(idxs) > 0; attempt++ {
		plans, run := c.getPlans[:0], c.runOps[:0]
		for _, i := range idxs {
			pl := c.gets.get().reset(c, keys[i], attempt == 0)
			plans, run = append(plans, pl), append(run, pl)
		}
		c.getPlans, c.runOps = plans, run
		c.runner.Doorbell.Run(run)

		stale := c.retryIdx[:0]
		for j, pl := range plans {
			i := idxs[j]
			if pl.stale && !pl.hit && attempt+1 < getRetries {
				stale = append(stale, i)
				continue
			}
			vals[i], oks[i] = c.finishGet(start, pl, probe, nil)
		}
		// Under doorbell dedup one plan's READ result can alias another
		// plan's buffer, so the plans go back only now that the whole
		// pass's hits are copied out (pool.go rule 1).
		for _, pl := range plans {
			c.gets.put(pl)
		}
		c.retryIdx, idxs = stale, stale
	}
}

// ------------------------------------------------------------------ MSet ----

// MSet stores a batch of key/value pairs with three doorbell batches
// (bucket READs, candidate object READs, object WRITEs + publishing
// CASes). Each pair runs the same setPlan one Set attempt would —
// update-in-place when the key's current copy is found, else an insert
// into the first reclaimable slot, preferring the main bucket, chasing a
// lost publish CAS inside the batch's own rounds — and the pairs an
// attempt could not settle (a chase that met another key, a displaced
// occupant a rival took first) are re-run together, so batched and serial
// stores behave identically under contention.
func (c *Client) MSet(pairs []KV) { c.mset(pairs, c.allIdx(len(pairs)), exec.Doorbell) }

// mset stores pairs[i] for every i in idxs.
func (c *Client) mset(pairs []KV, idxs []int, strat exec.Strategy) {
	if strat == exec.Serial {
		for _, i := range idxs {
			c.Set(pairs[i].Key, pairs[i].Value)
		}
		return
	}
	if len(idxs) == 0 {
		return
	}
	start := c.p.Now()
	// Same over-budget drain budget a sequence of len(idxs) Sets would
	// have, so batched writes shrink an over-budget heap at the same rate
	// as sequential ones — and, like them, as multi-victim doorbell
	// rounds when the deficit spans more than one block.
	c.drainOverBudget(shrinkEvictBatch * len(idxs))
	// Passes, as the serial store driver's attempts: the unsettled pairs
	// re-run together, in pair order (the last pair of a key still wins),
	// behind ONE back-off draw per pass.
	for attempt := 0; attempt < storeAttempts; attempt++ {
		plans, run := c.setPlans[:0], c.runOps[:0]
		for _, i := range idxs {
			pl := c.sets.get().reset(c, pairs[i].Key, pairs[i].Value)
			plans, run = append(plans, pl), append(run, pl)
		}
		c.setPlans, c.runOps = plans, run
		c.runner.Doorbell.Run(run)

		again := c.retryIdx[:0]
		for j, pl := range plans {
			if c.settle(pl, true, start) {
				c.Stats.Sets++
			} else {
				again = append(again, idxs[j])
			}
		}
		for _, pl := range plans {
			c.sets.put(pl)
		}
		if c.retryIdx, idxs = again, again; len(idxs) == 0 {
			return
		}
		c.backOff()
	}
	panic(fmt.Errorf("%w: MSet retries exhausted (table misconfigured?)", ErrNoProgress))
}

// --------------------------------------------------------------- MDelete ----

// MDelete removes a batch of keys with up to three doorbell batches
// (bucket READs, object READs, delete CASes), running the same delPlan a
// serial Delete traverses. The returned flags report, per key, whether a
// copy was deleted — exactly what the corresponding sequence of Delete
// calls would have returned.
func (c *Client) MDelete(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	c.mdelete(keys, c.allIdx(len(keys)), out, exec.Doorbell)
	return out
}

// mdelete removes keys[i] for every i in idxs, setting out[i] when a
// copy was deleted (and leaving it alone otherwise, so a caller clearing
// several nodes accumulates "any copy deleted").
func (c *Client) mdelete(keys [][]byte, idxs []int, out []bool, strat exec.Strategy) {
	if strat == exec.Serial {
		for _, i := range idxs {
			if c.Delete(keys[i]) {
				out[i] = true
			}
		}
		return
	}
	plans := c.delPlans[:0]
	run := c.runOps[:0]
	for _, i := range idxs {
		if c.loc != nil {
			c.loc.Drop(keys[i])
		}
		pl := c.dels.get().reset(c, keys[i])
		plans = append(plans, pl)
		run = append(run, pl)
	}
	c.delPlans, c.runOps = plans, run
	c.runner.Doorbell.Run(run)
	for j, pl := range plans {
		c.Stats.Deletes++
		if pl.deleted {
			out[idxs[j]] = true
		}
		c.dels.put(pl)
	}
}
