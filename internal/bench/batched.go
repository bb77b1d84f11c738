package bench

import (
	"io"
	"math/rand"

	"ditto/internal/core"
	"ditto/internal/sim"
	"ditto/internal/workload"
)

// batchedRow is one measured configuration of the batched-throughput
// scenario, as serialized into the JSON summary.
type batchedRow struct {
	Workload string  `json:"workload"`
	Batch    int     `json:"batch"`
	LocCache bool    `json:"loc_cache"` // client-side location cache on?
	Mops     float64 `json:"mops"`
	Speedup  float64 `json:"speedup_vs_seq"`
	HitRate  float64 `json:"hit_rate"`

	// Speculative-Get effectiveness over the measured phase: the fraction
	// of Gets served by one validated hinted READ, and the mean READ verbs
	// per Get (2.0 with the cache off; toward 1.0 as hints hit). In the
	// doorbell rows the hinted READs also fold MGet's two doorbells into
	// one for all-hinted windows.
	SpecGetHitRate float64 `json:"spec_get_hit_rate"`
	VerbsPerGet    float64 `json:"verbs_per_get"`

	// Host-side cost of simulating the measured phase (see Result):
	// allocations and wall-clock nanoseconds per key-operation. These
	// track the simulator's own hot path, not Ditto's virtual-time
	// performance; the alloc gate diffs them across commits.
	AllocsPerOp float64 `json:"allocs_per_op"`
	HostNsPerOp float64 `json:"host_ns_per_op"`
}

// BatchedThroughput measures the doorbell-batching lever: MGet/MSet
// pipelines against per-key Get/Set over a 2-MN pool, across batch sizes
// 1/8/32/128, under YCSB-C (read-only) and YCSB-A (50% writes, the mixed
// workload). Batch size 1 IS the sequential baseline — the speedup
// column is each batch size's throughput relative to it. A window's keys
// route to both MNs and both owners' plans share the batch's rounds, so a
// window costs its slower owner's rounds, not the sum of two pipelines.
// The shape to expect: throughput grows with batch size while round trips
// amortize, up to where the RNIC message rate (which batching does not
// reduce) binds — the read-only rows get there by batch 128; the mixed
// rows do not (rdma.nic_util_max stays under 0.7 on the benchmark's
// batch-mixed): what bounds them is the cross-client chase on hot keys, a
// publishing CAS lost to ANOTHER client's update of the same key. Their
// old flattening at batch 128 (1.08x the batch-32 row) was neither: an
// MSet ran one plan per PAIR, and at zipf 0.99 a window's pairs of its own
// hot keys lost their CASes to each other and chased (more of them the
// larger the window), behind one pipeline per owner run back to back. An
// MSet now stores a key once; TestBatchedMixedSpeedup pins the new shape.
func BatchedThroughput(w io.Writer, scale Scale) error {
	header(w, "Batched throughput: doorbell-batched MGet/MSet vs sequential ops")
	keys := scale.pick(4000, 20000)
	clients := scale.pick(4, 8)
	opsEach := scale.pick(4096, 32768) // key-operations per client
	batchSizes := []int{1, 8, 32, 128}

	var rows []batchedRow
	for _, wl := range []struct {
		name string
		kind workload.YCSBKind
	}{
		{"ycsb-c", workload.YCSBC},
		{"mixed", workload.YCSBA},
	} {
		for _, locCache := range []bool{false, true} {
			row(w, wl.name+"/loc-"+onOff(locCache), "batch", "tput(Mops)", "speedup",
				"hit rate", "spec hit", "verbs/get", "allocs/op", "host ns/op")
			base := 0.0
			for _, bs := range batchSizes {
				res, spec, vpg := runBatchedYCSB(wl.kind, keys, clients, opsEach, bs, locCache)
				if bs == 1 {
					base = res.Mops()
				}
				speedup := 0.0
				if base > 0 {
					speedup = res.Mops() / base
				}
				row(w, "", bs, res.Mops(), speedup, res.HitRate(), spec, vpg,
					res.AllocsPerOp(), res.HostNsPerOp())
				rows = append(rows, batchedRow{
					Workload: wl.name, Batch: bs, LocCache: locCache,
					Mops: res.Mops(), Speedup: speedup, HitRate: res.HitRate(),
					SpecGetHitRate: spec, VerbsPerGet: vpg,
					AllocsPerOp: res.AllocsPerOp(), HostNsPerOp: res.HostNsPerOp(),
				})
			}
		}
	}
	return writeJSONSummary(w, map[string]interface{}{
		"scenario":        "batched-throughput",
		"scale":           scale.String(),
		"keys":            keys,
		"clients":         clients,
		"loc_cache_slots": keys,
		"results":         rows,
	})
}

// runBatchedYCSB runs `clients` closed-loop clients against a 2-MN pool,
// each issuing opsEach key-operations in windows of batchSize requests:
// the window's writes go out as one MSet, its reads as one MGet.
// batchSize 1 degenerates to per-key Set/Get — the sequential baseline.
// With locCache the location cache is sized to the key space, so steady
// state approaches the all-hinted regime; returns the result plus the
// measured-phase spec_get_hit_rate and READ verbs per Get.
func runBatchedYCSB(kind workload.YCSBKind, keys, clients, opsEach, batchSize int, locCache bool) (Result, float64, float64) {
	env := sim.NewEnv(benchSeed(23))
	opts := core.DefaultOptions(keys*2, keys*512)
	if locCache {
		opts.LocCacheSlots = keys
	}
	mc := core.NewMultiCluster(env, 2, opts)
	factory := func(p *sim.Proc) CacheOps { return mc.NewClient(p) }
	RunLoad(env, factory, loadKeys(keys), 16)

	reads0 := nodeReads(mc)
	res := Result{}
	var agg core.Stats
	meter := startHostMeter()
	start := env.Now()
	for w := 0; w < clients; w++ {
		w := w
		env.Go("client", func(p *sim.Proc) {
			m := mc.NewClient(p)
			g := workload.NewYCSB(kind, uint64(keys), 256)
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for done := 0; done < opsEach; done += batchSize {
				n := batchSize
				if rem := opsEach - done; n > rem {
					n = rem
				}
				var pairs []core.KV
				var gets [][]byte
				for j := 0; j < n; j++ {
					r := g.Next(rng)
					if r.Write {
						pairs = append(pairs, core.KV{Key: workload.KeyBytes(r.Key), Value: valueFor(r)})
					} else {
						gets = append(gets, workload.KeyBytes(r.Key))
					}
				}
				if batchSize == 1 {
					for _, kv := range pairs {
						m.Set(kv.Key, kv.Value)
					}
					for _, k := range gets {
						if _, ok := m.Get(k); ok {
							res.Hits++
						} else {
							res.Misses++
						}
					}
				} else {
					m.MSet(pairs)
					_, oks := m.MGet(gets)
					for _, ok := range oks {
						if ok {
							res.Hits++
						} else {
							res.Misses++
						}
					}
				}
				res.Ops += int64(n)
			}
			agg.Add(m.Stats())
		})
	}
	env.Run()
	res.ElapsedNs = env.Now() - start
	meter.stop(&res)
	vpg := 0.0
	if agg.Gets > 0 {
		vpg = float64(nodeReads(mc)-reads0) / float64(agg.Gets)
	}
	return res, agg.SpecGetHitRate(), vpg
}
