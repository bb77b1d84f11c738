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
//	MSet:    up to 4 doorbells (bucket READs, candidate object READs,
//	         object WRITEs, publishing CASes)
//	MDelete: up to 3 doorbells (bucket READs, object READs, delete CASes)
//
// Races are resolved exactly as in the serial paths: a key whose
// speculative image was rejected, whose snapshot went stale, whose
// publishing CAS lost, or whose buckets were full is demoted to the ONE
// serial driver of its operation (Client.get, Client.set — the bounded
// retry loops of client.go), so batched and serial operations are
// observably equivalent. A demoted key keeps the BATCH's start as its
// latency clock: the doorbell rounds it already sat through are part of
// what the caller waited for.

import "ditto/internal/exec"

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
// cache enabled, hinted keys run specGetPlans instead: their speculative
// object READs join the unhinted keys' bucket READs in the SAME first
// doorbell, so an all-hinted all-valid batch costs exactly ONE doorbell.
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
			vals[i], oks[i] = c.get(keys[i], probe, nil, c.p.Now())
		}
		return
	}
	start := c.p.Now()
	// Pooled plans and run scratch. Under doorbell dedup one plan's READ
	// result can alias another plan's buffer, so every plan stays
	// out of the pool until the whole batch's outputs are consumed (pool.go
	// rule 1); the serial fallbacks below draw from the same pools but
	// never touch plans still held here. specIdx/getIdx map each
	// in-flight plan back to its key index.
	plans := c.getPlans[:0]
	specs := c.specPlans[:0]
	specIdx := c.specIdx[:0]
	getIdx := c.getIdx[:0]
	run := c.runOps[:0]
	for _, i := range idxs {
		if c.loc != nil {
			if h, ok := c.loc.Lookup(keys[i]); ok {
				sp := c.specs.get().reset(c, keys[i], h)
				specs = append(specs, sp)
				specIdx = append(specIdx, i)
				run = append(run, sp)
				continue
			}
		}
		pl := c.gets.get().reset(c, keys[i])
		plans = append(plans, pl)
		getIdx = append(getIdx, i)
		run = append(run, pl)
	}
	c.getPlans, c.specPlans, c.runOps = plans, specs, run
	c.specIdx, c.getIdx = specIdx, getIdx
	c.runner.Doorbell.Run(run)

	for j, sp := range specs {
		if sp.ok {
			i := specIdx[j]
			vals[i], oks[i] = c.finishSpecHit(start, sp, nil), true
		}
	}
	for j, pl := range plans {
		if pl.hit {
			i := getIdx[j]
			vals[i], oks[i] = c.finishWalkHit(start, pl, nil), true
		}
	}
	for j, sp := range specs {
		if sp.ok {
			continue
		}
		// The speculative image failed validation: drop the hint and re-run
		// the key through the serial driver's ordinary bucket walk, which
		// applies the exact hit/miss/probe semantics (and re-records a
		// fresh hint on a hit).
		i := specIdx[j]
		c.dropHint(keys[i])
		vals[i], oks[i] = c.get(keys[i], probe, nil, start)
	}
	for j, pl := range plans {
		if pl.hit {
			continue
		}
		if pl.stale {
			// Rare: the snapshot raced a concurrent update. Re-run the key
			// through the serial driver, which retries bounded re-reads
			// exactly as a lone Get would.
			i := getIdx[j]
			vals[i], oks[i] = c.get(keys[i], probe, nil, start)
		} else if !probe {
			c.finishMiss(start, pl)
		}
	}
	for _, pl := range plans {
		c.gets.put(pl)
	}
	for _, sp := range specs {
		c.specs.put(sp)
	}
}

// ------------------------------------------------------------------ MSet ----

// MSet stores a batch of key/value pairs with up to four doorbell batches
// (bucket READs, candidate object READs, object WRITEs, publishing
// CASes). Each pair runs the same setPlan one Set attempt would —
// update-in-place when the key's current copy is found, else an insert
// into the first reclaimable slot, preferring the main bucket — and any
// pair whose CAS loses a race or whose buckets are full falls back to the
// serial Set retry loop, so batched and serial stores behave identically
// under contention.
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
	plans := c.setPlans[:0]
	run := c.runOps[:0]
	for _, i := range idxs {
		pl := c.sets.get().reset(c, pairs[i].Key, pairs[i].Value)
		plans = append(plans, pl)
		run = append(run, pl)
	}
	c.setPlans, c.runOps = plans, run
	c.runner.Doorbell.Run(run)

	var fallback []int
	for j, pl := range plans {
		switch pl.outcome {
		case setDone:
			c.noteSetLocation(pl)
			c.Stats.Sets++
			c.report(OpSet, start, true)
		case setCASLost:
			// Lost the slot to a concurrent writer, an eviction, or an
			// earlier pair of this very batch: retry serially.
			c.Stats.SetRetries++
			fallback = append(fallback, idxs[j])
		case setNoFree:
			fallback = append(fallback, idxs[j])
		}
	}
	// Put back before the serial retries: the fallbacks re-run their keys
	// with fresh plans and no batch output is read past this point.
	for _, pl := range plans {
		c.sets.put(pl)
	}
	for _, i := range fallback {
		c.set(pairs[i].Key, pairs[i].Value, start) // counts its own Sets/retries
	}
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
