package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ditto/internal/core"
	"ditto/internal/exec"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/workload"
)

// ElasticReshard measures Ditto's second memory-elasticity axis: scaling
// the memory pool from 2 to 4 MNs mid-run with live resharding. This goes
// beyond the paper's evaluation (which grows one MN's heap with no
// migration, Figures 13/22) by exercising the §5.1 multi-MN note: the
// consistent-hash ring moves only ~half the keys, migration runs through
// the same one-sided verbs as client traffic, and the forwarding window
// keeps every key readable throughout.
//
// The scenario runs twice, once per reshard strategy of the verb-plan
// executor (internal/exec): Serial runs one plan at a time, one verb
// group per round trip — the paper-faithful baseline — while Doorbell (the default) pipelines the
// table scan and the per-key migrations as doorbell batches. Three equal
// phases are reported for each: steady state on 2 MNs, the reshard window
// (both AddNode migrations run here), and steady state on 4 MNs. The
// shape to expect: client throughput holds (or rises with the aggregate
// RNIC budget) through the window instead of collapsing the way Figure
// 1's stop-the-world Redis migration does, the hit rate stays flat
// because no key is lost in flight, and the Doorbell strategy completes
// the same migration in a fraction of the Serial reshard time.
func ElasticReshard(w io.Writer, scale Scale) error {
	header(w, "Elastic reshard: live MN scale-out 2→4 under load")
	keys := scale.pick(4000, 20000)
	clients := scale.pick(8, 32)
	phase := int64(scale.pick(10, 40)) * sim.Millisecond

	type phaseRow struct {
		Phase   string  `json:"phase"`
		Mops    float64 `json:"mops"`
		HitRate float64 `json:"hit_rate"`
	}
	type stratRow struct {
		Strategy  string     `json:"strategy"`
		Phases    []phaseRow `json:"phases"`
		ReshardMs float64    `json:"reshard_ms"`
		Migrated  int64      `json:"migrated_keys"`
	}
	var rows []stratRow

	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		env := sim.NewEnv(benchSeed(17))
		mc := core.NewMultiCluster(env, 2, core.DefaultOptions(keys*2, keys*512))
		mc.SetStrategy(strat)
		factory := func(p *sim.Proc) CacheOps { return mc.NewClient(p) }
		RunLoad(env, factory, loadKeys(keys), 16)

		const phases = 3
		var ops, hits, misses [phases]int64
		t0 := env.Now()
		end := t0 + phases*phase
		for i := 0; i < clients; i++ {
			i := i
			env.Go("client", func(p *sim.Proc) {
				c := mc.NewClient(p)
				g := workload.NewYCSB(workload.YCSBB, uint64(keys), 256)
				rng := rand.New(rand.NewSource(int64(100 + i)))
				for p.Now() < end {
					r := g.Next(rng)
					key := workload.KeyBytes(r.Key)
					ph := int((p.Now() - t0) / phase)
					if ph >= phases {
						ph = phases - 1
					}
					if r.Write {
						c.Set(key, valueFor(r))
					} else if _, ok := c.Get(key); ok {
						hits[ph]++
					} else {
						misses[ph]++
					}
					ops[ph]++
				}
			})
		}
		// Phase 2 boundary: add two MNs back to back, each a live reshard.
		env.GoAt(t0+phase, "scale-out", func(p *sim.Proc) {
			mc.AddNode()
			mc.WaitReshard(p)
			mc.AddNode()
			mc.WaitReshard(p)
		})
		env.Run()

		sr := stratRow{
			Strategy:  strat.String(),
			ReshardMs: float64(mc.ReshardNs) / float64(sim.Millisecond),
			Migrated:  mc.MigratedKeys,
		}
		labels := [phases]string{"before (2 MN)", "reshard", "after (4 MN)"}
		fmt.Fprintf(w, "-- %s resharder --\n", strat)
		row(w, "phase", "tput(Mops)", "hit rate")
		for ph := 0; ph < phases; ph++ {
			total := hits[ph] + misses[ph]
			hr := 0.0
			if total > 0 {
				hr = float64(hits[ph]) / float64(total)
			}
			row(w, labels[ph], stats.Mops(ops[ph], phase), hr)
			sr.Phases = append(sr.Phases, phaseRow{Phase: labels[ph], Mops: stats.Mops(ops[ph], phase), HitRate: hr})
		}
		fmt.Fprintf(w, "reshards: %d, keys migrated: %d (of %d loaded), reshard time: %.2f ms, final MNs: %d\n",
			mc.Reshards, mc.MigratedKeys, keys, sr.ReshardMs, mc.NumNodes())
		rows = append(rows, sr)
	}
	if len(rows) == 2 && rows[1].ReshardMs > 0 {
		fmt.Fprintf(w, "doorbell reshard speedup vs serial: %.2fx\n",
			rows[0].ReshardMs/rows[1].ReshardMs)
	}
	return writeJSONSummary(w, map[string]interface{}{
		"scenario": "elastic-reshard",
		"scale":    scale.String(),
		"keys":     keys,
		"clients":  clients,
		"results":  rows,
	})
}
