// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. Each benchmark drives b.N operations through the exact
// system/workload configuration of its experiment (miniature scale) and
// reports the experiment's headline metrics — virtual-time Mops and/or hit
// rate — as custom metrics. The full tables/series are regenerated by
// cmd/dittobench (catalog: docs/BENCHMARKS.md).
package ditto_test

import (
	"math/rand"
	"testing"

	"ditto/internal/baselines"
	"ditto/internal/cachealgo"
	"ditto/internal/core"
	"ditto/internal/rdma"
	"ditto/internal/sim"
	"ditto/internal/simcache"
	"ditto/internal/workload"
)

// value240 is the payload used throughout (≈256 B objects).
var value240 = make([]byte, 240)

// runOps drives b.N operations from gen through clients of factory inside
// one virtual-time environment and reports virtual Mops.
func runOps(b *testing.B, env *sim.Env, clients int,
	client func(p *sim.Proc) func(r workload.Req), gen workload.Generator) {
	b.Helper()
	start := env.Now()
	per := b.N/clients + 1
	for w := 0; w < clients; w++ {
		w := w
		env.Go("bench", func(p *sim.Proc) {
			op := client(p)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				op(gen.Next(rng))
			}
		})
	}
	env.Run()
	elapsed := env.Now() - start
	if elapsed > 0 {
		b.ReportMetric(float64(per*clients)/(float64(elapsed)/1e9)/1e6, "virtMops")
	}
}

// dittoCluster builds a no-miss Ditto cluster preloaded with keys.
func dittoCluster(b *testing.B, env *sim.Env, keys int) *core.Cluster {
	b.Helper()
	cl := core.NewCluster(env, core.DefaultOptions(keys*2, keys*512))
	env.Go("load", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < keys; i++ {
			c.Set(workload.KeyBytes(uint64(i)), value240)
		}
	})
	env.Run()
	return cl
}

func dittoOp(cl *core.Cluster) func(p *sim.Proc) func(r workload.Req) {
	return func(p *sim.Proc) func(r workload.Req) {
		c := cl.NewClient(p)
		return func(r workload.Req) {
			if r.Write {
				c.Set(workload.KeyBytes(r.Key), value240)
			} else {
				c.Get(workload.KeyBytes(r.Key))
			}
		}
	}
}

// --- Figure 1: Redis-like sharded cache under skewed YCSB-C --------------

func BenchmarkFig01RedisSkewedGets(b *testing.B) {
	env := sim.NewEnv(1)
	const keys = 2000
	cluster := baselines.NewRedisCluster(env, 8, keys)
	env.Go("load", func(p *sim.Proc) {
		cl := cluster.NewRedisClient(p)
		for i := 0; i < keys; i++ {
			cl.Set(uint64(i), value240)
		}
	})
	env.Run()
	b.ResetTimer()
	runOps(b, env, 16, func(p *sim.Proc) func(r workload.Req) {
		cl := cluster.NewRedisClient(p)
		return func(r workload.Req) { cl.Get(r.Key) }
	}, workload.NewYCSB(workload.YCSBC, keys, 256))
}

// --- Figure 2: remote caching-structure maintenance ----------------------

func benchKV(b *testing.B, kind baselines.KVKind, clients int) {
	env := sim.NewEnv(1)
	const keys = 2000
	c := baselines.NewKVCluster(env, kind, keys, rdma.DefaultConfig())
	env.Go("load", func(p *sim.Proc) {
		cl := c.NewKVClient(p)
		for i := 0; i < keys; i++ {
			cl.Set(workload.KeyBytes(uint64(i)), value240)
		}
	})
	env.Run()
	b.ResetTimer()
	runOps(b, env, clients, func(p *sim.Proc) func(r workload.Req) {
		cl := c.NewKVClient(p)
		return func(r workload.Req) { cl.Get(workload.KeyBytes(r.Key)) }
	}, workload.NewYCSB(workload.YCSBC, keys, 256))
}

func BenchmarkFig02KVS(b *testing.B)  { benchKV(b, baselines.KVS, 8) }
func BenchmarkFig02KVC(b *testing.B)  { benchKV(b, baselines.KVC, 8) }
func BenchmarkFig02KVCS(b *testing.B) { benchKV(b, baselines.KVCS, 8) }

// --- Figures 3-5: single-machine hit-rate simulation ---------------------

func benchSimcache(b *testing.B, algo cachealgo.Algorithm, spec workload.TraceSpec) {
	trace := spec.Build()
	c := simcache.New(algo, spec.Footprint/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace[i%len(trace)]
		c.Access(r.Key, r.Size)
	}
	b.ReportMetric(c.HitRate(), "hitRate")
}

func BenchmarkFig03MixedAppsLRU(b *testing.B) {
	benchSimcache(b, cachealgo.NewLRU(), workload.LRUFriendly(20000, 2000, 31))
}

func BenchmarkFig04WebmailLFU(b *testing.B) {
	benchSimcache(b, cachealgo.NewLFU(), workload.Webmail(20000, 2000, 4))
}

func BenchmarkFig05SuiteMember(b *testing.B) {
	spec := workload.Suite(4, 20000, 2000)[1]
	benchSimcache(b, cachealgo.NewLRU(), spec)
}

// --- Figure 13: Ditto elasticity substrate (read path) -------------------

func BenchmarkFig13DittoGets(b *testing.B) {
	env := sim.NewEnv(1)
	cl := dittoCluster(b, env, 2000)
	b.ResetTimer()
	runOps(b, env, 24, dittoOp(cl), workload.NewYCSB(workload.YCSBC, 2000, 256))
}

// --- Figure 14: the four systems on YCSB ---------------------------------

func BenchmarkFig14DittoYCSBA(b *testing.B) {
	env := sim.NewEnv(1)
	cl := dittoCluster(b, env, 2000)
	b.ResetTimer()
	runOps(b, env, 16, dittoOp(cl), workload.NewYCSB(workload.YCSBA, 2000, 256))
}

func BenchmarkFig14DittoYCSBC(b *testing.B) {
	env := sim.NewEnv(1)
	cl := dittoCluster(b, env, 2000)
	b.ResetTimer()
	runOps(b, env, 16, dittoOp(cl), workload.NewYCSB(workload.YCSBC, 2000, 256))
}

func BenchmarkFig14ShardLRU(b *testing.B) { benchKV(b, baselines.KVCS, 16) }

func benchCM(b *testing.B, algo baselines.CMAlgo, kind workload.YCSBKind) {
	env := sim.NewEnv(1)
	const keys = 2000
	c := baselines.NewCMCluster(env, algo, keys*2, keys*512, baselines.CMFabric())
	env.Go("load", func(p *sim.Proc) {
		cl := c.NewCMClient(p)
		for i := 0; i < keys; i++ {
			cl.Set(workload.KeyBytes(uint64(i)), value240)
		}
	})
	env.Run()
	b.ResetTimer()
	runOps(b, env, 16, func(p *sim.Proc) func(r workload.Req) {
		cl := c.NewCMClient(p)
		return func(r workload.Req) {
			if r.Write {
				cl.Set(workload.KeyBytes(r.Key), value240)
			} else {
				cl.Get(workload.KeyBytes(r.Key))
			}
		}
	}, workload.NewYCSB(kind, keys, 256))
}

func BenchmarkFig14CMLRUYCSBA(b *testing.B) { benchCM(b, baselines.CMLRU, workload.YCSBA) }
func BenchmarkFig14CMLFUYCSBC(b *testing.B) { benchCM(b, baselines.CMLFU, workload.YCSBC) }

// --- Figure 15: MN CPU scaling ---------------------------------------------

func BenchmarkFig15CM4Cores(b *testing.B) {
	env := sim.NewEnv(1)
	const keys = 2000
	fab := baselines.CMFabric()
	fab.CPUCores = 4
	c := baselines.NewCMCluster(env, baselines.CMLRU, keys*2, keys*512, fab)
	env.Go("load", func(p *sim.Proc) {
		cl := c.NewCMClient(p)
		for i := 0; i < keys; i++ {
			cl.Set(workload.KeyBytes(uint64(i)), value240)
		}
	})
	env.Run()
	b.ResetTimer()
	runOps(b, env, 16, func(p *sim.Proc) func(r workload.Req) {
		cl := c.NewCMClient(p)
		return func(r workload.Req) { cl.Set(workload.KeyBytes(r.Key), value240) }
	}, workload.NewYCSB(workload.YCSBA, keys, 256))
}

// --- Figures 16/17/19: trace replay with miss penalty ---------------------

func benchDittoTrace(b *testing.B, spec workload.TraceSpec, experts ...string) {
	trace := spec.Build()
	env := sim.NewEnv(1)
	capObjs := spec.Footprint / 10
	opts := core.DefaultOptions(capObjs, capObjs*320)
	opts.Experts = experts
	cl := core.NewCluster(env, opts)
	var hits, total int64
	idx := 0
	b.ResetTimer()
	env.Go("bench", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < b.N; i++ {
			r := trace[idx%len(trace)]
			idx++
			key := workload.KeyBytes(r.Key)
			if _, ok := c.Get(key); ok {
				hits++
			} else {
				p.Sleep(500 * sim.Microsecond)
				c.Set(key, value240)
			}
			total++
		}
	})
	env.Run()
	if total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "hitRate")
	}
}

func BenchmarkFig16WebmailDitto(b *testing.B) {
	benchDittoTrace(b, workload.Webmail(30000, 3000, 101), "LRU", "LFU")
}

func BenchmarkFig17TwitterStorageDittoLFU(b *testing.B) {
	benchDittoTrace(b, workload.TwitterStorage(30000, 3000, 103), "LFU")
}

func BenchmarkFig19ChangingDitto(b *testing.B) {
	benchDittoTrace(b, workload.Changing(8000, 3000, 77), "LRU", "LFU")
}

// --- Figure 18: suite hit rates -------------------------------------------

func BenchmarkFig18SuiteDitto(b *testing.B) {
	benchDittoTrace(b, workload.Suite(4, 30000, 3000)[2], "LRU", "LFU")
}

// --- Figures 20-22: resource-shift hit rates ------------------------------

func BenchmarkFig20SplitApps(b *testing.B) {
	benchDittoTrace(b, workload.LFUFriendly(30000, 3000, 202), "LRU", "LFU")
}

func BenchmarkFig21GrowClients(b *testing.B) {
	benchDittoTrace(b, workload.Webmail(30000, 3000, 211), "LRU", "LFU")
}

func BenchmarkFig22GrowMemory(b *testing.B) {
	benchDittoTrace(b, workload.Webmail(30000, 3000, 221), "LRU", "LFU")
}

// --- Figure 23 / Table 3: the 12 algorithms -------------------------------

func BenchmarkFig23AllAlgorithms(b *testing.B) {
	for _, info := range cachealgo.All() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			benchSimcache(b, info.New(), workload.Webmail(20000, 2000, 231))
		})
	}
}

func BenchmarkTable3PriorityFunctions(b *testing.B) {
	metas := make([]cachealgo.Metadata, 64)
	for i := range metas {
		metas[i] = cachealgo.Metadata{Size: 256, InsertTs: int64(i), LastTs: int64(i * 7), Freq: uint64(i%13 + 1)}
	}
	for _, info := range cachealgo.All() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			a := info.New()
			if n := a.ExtSize(); n > 0 {
				for i := range metas {
					metas[i].Ext = make([]byte, n)
					a.InitExt(&metas[i], metas[i].InsertTs)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Priority(&metas[i%len(metas)], int64(i))
			}
		})
	}
}

// --- Figure 24: ablations --------------------------------------------------

func benchAblation(b *testing.B, mod func(*core.Options)) {
	env := sim.NewEnv(1)
	const keys = 2000
	opts := core.DefaultOptions(keys*2, keys*512)
	mod(&opts)
	cl := core.NewCluster(env, opts)
	env.Go("load", func(p *sim.Proc) {
		c := cl.NewClient(p)
		for i := 0; i < keys; i++ {
			c.Set(workload.KeyBytes(uint64(i)), value240)
		}
	})
	env.Run()
	b.ResetTimer()
	runOps(b, env, 16, dittoOp(cl), workload.NewYCSB(workload.YCSBC, keys, 256))
}

func BenchmarkFig24Full(b *testing.B) { benchAblation(b, func(*core.Options) {}) }
func BenchmarkFig24NoSFHT(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.DisableSFHT = true })
}
func BenchmarkFig24NoLWH(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.DisableLWH = true })
}

// --- Figure 25: FC cache sizes ---------------------------------------------

func BenchmarkFig25FCDisabled(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.FCCacheBytes = 0 })
}
func BenchmarkFig25FC10MB(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.FCCacheBytes = 10 << 20 })
}
