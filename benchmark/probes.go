package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ditto"
	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/fccache"
	"ditto/internal/hashtable"
	"ditto/internal/hotset"
	"ditto/internal/loccache"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/ring"
	"ditto/internal/sim"
	"ditto/internal/workload"
)

// A probe drives one layer's public functions directly, in a tight loop
// on the host clock. setup builds the layer once; the function it returns
// runs iters iterations and reports the host time and heap allocations
// of the loop alone. An iteration covers per units of the metric.
type probe struct {
	name   string
	allocs string  // name of the allocations-per-unit metric, if any
	per    float64 // units per iteration
	scale  float64 // ns per unit → the metric's unit; 0 means 1
	setup  func() func(iters int) (time.Duration, uint64)
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink uint64

// timed measures f alone: allocations are read outside the timed window.
func timed(f func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// zipfIdx pre-draws the key sequence every probe replays: YCSB's
// scrambled zipfian 0.99 over the workloads' 20 000 keys.
func zipfIdx() []uint64 {
	z := workload.NewScrambledZipfian(objectKeys, 0.99)
	rng := rand.New(rand.NewSource(1))
	idx := make([]uint64, 1<<16)
	for i := range idx {
		idx[i] = z.Next(rng)
	}
	return idx
}

// inProc runs body as the only proc of env and returns what it measured.
func inProc(env *sim.Env, body func(p *sim.Proc) (time.Duration, uint64)) (d time.Duration, a uint64) {
	env.Go("probe", func(p *sim.Proc) { d, a = body(p) })
	env.Run()
	return d, a
}

// stubPlan is a two-stage verb plan: one 64-byte READ per stage.
type stubPlan struct {
	stage int
	verb  [1]exec.Verb
}

func (s *stubPlan) Step(bool) []exec.Verb {
	if s.stage == 2 {
		return nil
	}
	return s.verb[:]
}

func (s *stubPlan) Absorb([]exec.Result) { s.stage++ }

func execProbe(strategy exec.Strategy) func() func(int) (time.Duration, uint64) {
	return func() func(int) (time.Duration, uint64) {
		env := sim.NewEnv(1)
		node := rdma.NewNode(env, 1<<20, rdma.DefaultConfig())
		return func(iters int) (time.Duration, uint64) {
			return inProc(env, func(p *sim.Proc) (time.Duration, uint64) {
				ep := rdma.NewEndpoint(node, p)
				stubs := make([]stubPlan, 32)
				plans := make([]exec.Plan, len(stubs))
				for i := range stubs {
					op := rdma.BatchOp{Kind: rdma.BatchRead, Addr: uint64(i) * 64, Len: 64, Buf: make([]byte, 64)}
					stubs[i].verb[0] = exec.Verb{EP: ep, Op: op}
					plans[i] = &stubs[i]
				}
				var runner exec.Runner
				return timed(func() {
					for i := 0; i < iters; i++ {
						for j := range stubs {
							stubs[j].stage = 0
						}
						runner.RunPlans(strategy, plans)
					}
				})
			})
		}
	}
}

// coreProbe builds a single-node cluster with one client that stores the
// first `load` keys. A client only works on its own proc, so that proc
// stays parked between rounds and the client keeps its warm state (plan
// pools, location cache); iters == 0 ends it.
func coreProbe(opts ditto.Options, keys [][]byte, load int,
	body func(cl *ditto.Client, iters int) (time.Duration, uint64)) func() func(int) (time.Duration, uint64) {

	return func() func(int) (time.Duration, uint64) {
		env := sim.NewEnv(1)
		cluster := ditto.NewCluster(env, opts)
		wake := sim.NewCond(env)
		var iters int
		var d time.Duration
		var a uint64
		env.Go("client", func(p *sim.Proc) {
			cl := cluster.NewClient(p)
			val := make([]byte, valueLen)
			for k := 0; k < load; k++ {
				cl.Set(keys[k], val)
			}
			for wake.Wait(p); iters > 0; wake.Wait(p) {
				d, a = body(cl, iters)
			}
		})
		env.Run()
		return func(n int) (time.Duration, uint64) {
			iters = n
			wake.Broadcast()
			env.Run()
			return d, a
		}
	}
}

func probes() []probe {
	idx := zipfIdx()
	mask := len(idx) - 1
	keys := keyTable(2 * objectKeys)
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = hashtable.KeyHash(k)
	}
	val := make([]byte, valueLen)

	readOpts := ditto.DefaultOptions(objectKeys, objectKeys*512)
	readOpts.LocCacheSlots = 4096
	const cacheObjects = 4000
	churnOpts := ditto.DefaultOptions(cacheObjects, cacheObjects*320)

	window := func(i int) (ks [][]byte, kvs []ditto.KV) {
		for j := 0; j < 32; j++ {
			k := keys[idx[(i*32+j)&mask]]
			ks = append(ks, k)
			kvs = append(kvs, ditto.KV{Key: k, Value: val})
		}
		return ks, kvs
	}

	return []probe{
		{name: "sim.switch_host_ns", per: 16, setup: func() func(int) (time.Duration, uint64) {
			return func(iters int) (time.Duration, uint64) {
				env := sim.NewEnv(1)
				for c := 0; c < 16; c++ {
					env.Go("ping", func(p *sim.Proc) {
						for i := 0; i < iters; i++ {
							p.Sleep(1)
						}
					})
				}
				return timed(env.Run)
			}
		}},
		{name: "sim.acquire_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			res := sim.NewResource(sim.NewEnv(1), 1)
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						sink += uint64(res.Acquire(25))
					}
				})
			}
		}},
		{name: "rdma.read_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			node := rdma.NewNode(env, 1<<20, rdma.DefaultConfig())
			return func(iters int) (time.Duration, uint64) {
				return inProc(env, func(p *sim.Proc) (time.Duration, uint64) {
					ep := rdma.NewEndpoint(node, p)
					buf := make([]byte, 64)
					return timed(func() {
						for i := 0; i < iters; i++ {
							ep.ReadInto(uint64(i&1023)*64, 64, buf)
						}
					})
				})
			}
		}},
		{name: "rdma.batch_verb_host_ns", per: 32, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			node := rdma.NewNode(env, 1<<20, rdma.DefaultConfig())
			return func(iters int) (time.Duration, uint64) {
				return inProc(env, func(p *sim.Proc) (time.Duration, uint64) {
					ep := rdma.NewEndpoint(node, p)
					ops := make([]rdma.BatchOp, 32)
					for i := range ops {
						ops[i] = rdma.BatchOp{Kind: rdma.BatchRead, Addr: uint64(i) * 64, Len: 64, Buf: make([]byte, 64)}
					}
					return timed(func() {
						for i := 0; i < iters; i++ {
							//dittolint:allow verbplan (layer probe: times the raw doorbell post itself, below any plan)
							ep.PostBatch(ops)
						}
					})
				})
			}
		}},
		{name: "rdma.async_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			node := rdma.NewNode(env, 1<<20, rdma.DefaultConfig())
			return func(iters int) (time.Duration, uint64) {
				return inProc(env, func(p *sim.Proc) (time.Duration, uint64) {
					ep := rdma.NewEndpoint(node, p)
					stamp := make([]byte, 8)
					return timed(func() {
						for i := 0; i < iters; i++ {
							//dittolint:allow verbplan (layer probe: times the raw unsignalled WRITE itself, the shape of a free-stamp)
							ep.WriteAsync(uint64(i&1023)*64, stamp)
						}
					})
				})
			}
		}},
		{name: "memnode.alloc_free_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			mn := memnode.New(env, memnode.Config{MemBytes: 4 << 20, Fabric: rdma.DefaultConfig()})
			return func(iters int) (time.Duration, uint64) {
				return inProc(env, func(p *sim.Proc) (time.Duration, uint64) {
					alloc := memnode.NewAlloc(mn, rdma.NewEndpoint(mn.Node, p))
					addr, _ := alloc.Alloc(320) // fetches the first segment
					alloc.Free(addr, 320)
					return timed(func() {
						for i := 0; i < iters; i++ {
							addr, _ := alloc.Alloc(320)
							alloc.Free(addr, 320)
						}
					})
				})
			}
		}},
		{name: "memnode.new_host_us_per_mb", per: 32, scale: 1e-3, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						mn := memnode.New(env, memnode.Config{MemBytes: 32 << 20, Fabric: rdma.DefaultConfig()})
						sink += uint64(mn.HeapBytes())
					}
				})
			}
		}},
		{name: "hashtable.keyhash_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						sink += hashtable.KeyHash(keys[idx[i&mask]])
					}
				})
			}
		}},
		{name: "hashtable.decode_bucket_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			layout := hashtable.Layout{Config: hashtable.Config{Buckets: 6250, SlotsPerBucket: hashtable.DefaultSlotsPerBucket}, Base: 64}
			raw := make([]byte, layout.SlotsPerBucket*hashtable.SlotBytes)
			for i := range raw {
				raw[i] = byte(i * 7)
			}
			var slots []hashtable.Slot
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						slots = layout.AppendBucket(slots[:0], i%layout.Buckets, raw)
					}
					sink += uint64(len(slots))
				})
			}
		}},
		{name: "exec.serial_stage_host_ns", per: 64, setup: execProbe(exec.Serial)},
		{name: "exec.doorbell_stage_host_ns", per: 64, setup: execProbe(exec.Doorbell)},
		{name: "loccache.lookup_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			cache := loccache.New(4096)
			for _, k := range idx {
				cache.Record(keys[k], loccache.Hint{Addr: k * 320, Len: 320, Ver: k + 1})
			}
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						h, _ := cache.Lookup(keys[idx[i&mask]])
						sink += h.Addr
					}
				})
			}
		}},
		{name: "loccache.record_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			cache := loccache.New(4096)
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						k := idx[i&mask]
						cache.Record(keys[k], loccache.Hint{Addr: k * 320, Len: 320, Ver: k + 1})
					}
				})
			}
		}},
		{name: "fccache.add_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			cache := fccache.New(10<<20, 10, func(addr, delta uint64) { sink += delta })
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						cache.Add(idx[i&mask]*hashtable.SlotBytes, 16)
					}
				})
			}
		}},
		{name: "cachealgo.priority_host_ns", per: 10, setup: func() func(int) (time.Duration, uint64) {
			// One eviction's worth: 5 sampled slots scored by both experts.
			lru, _ := cachealgo.New("LRU")
			lfu, _ := cachealgo.New("LFU")
			var sample [5]cachealgo.Metadata
			for i := range sample {
				sample[i] = cachealgo.Metadata{Size: 320, InsertTs: int64(i), LastTs: int64(100 * i), Freq: uint64(3 * i)}
			}
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					var sum float64
					for i := 0; i < iters; i++ {
						for j := range sample {
							sum += lru.Priority(&sample[j], int64(i)) + lfu.Priority(&sample[j], int64(i))
						}
					}
					sink += uint64(sum)
				})
			}
		}},
		{name: "ring.owner_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			rg := ring.New(0, 0, 1, 2, 3)
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						sink += uint64(rg.Owner(ring.Point(hashes[idx[i&mask]])))
					}
				})
			}
		}},
		{name: "hotset.lookup_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			env := sim.NewEnv(1)
			set := hotset.New(env, 512)
			env.Go("promote", func(p *sim.Proc) {
				for _, k := range idx {
					if set.Len() == set.Limit() {
						break
					}
					e := &hotset.Entry{Key: keys[k], KeyHash: hashes[k]}
					if set.Insert(p, e) {
						set.Unlock(e)
					}
				}
			})
			env.Run()
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						if set.Lookup(keys[idx[i&mask]]) != nil {
							sink++
						}
					}
				})
			}
		}},
		{name: "workload.next_host_ns", per: 1, setup: func() func(int) (time.Duration, uint64) {
			gen := workload.NewYCSB(workload.YCSBA, objectKeys, workload.DefaultObjectSize)
			rng := rand.New(rand.NewSource(1))
			return func(iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						sink += gen.Next(rng).Key
					}
				})
			}
		}},
		{name: "core.get_host_ns", allocs: "core.get_allocs", per: 1,
			setup: coreProbe(readOpts, keys, objectKeys, func(cl *ditto.Client, iters int) (time.Duration, uint64) {
				buf := make([]byte, 0, 2*valueLen)
				return timed(func() {
					for i := 0; i < iters; i++ {
						v, _ := cl.GetAppend(buf[:0], keys[idx[i&mask]])
						sink += uint64(len(v))
					}
				})
			})},
		{name: "core.set_host_ns", allocs: "core.set_allocs", per: 1,
			setup: coreProbe(readOpts, keys, objectKeys, func(cl *ditto.Client, iters int) (time.Duration, uint64) {
				return timed(func() {
					for i := 0; i < iters; i++ {
						cl.Set(keys[idx[i&mask]], val)
					}
				})
			})},
		{name: "core.evict_set_host_ns", per: 1,
			// The cache holds 4 000 of 40 000 keys and every Set stores the
			// key least recently stored, so every Set evicts.
			setup: coreProbe(churnOpts, keys, 2*cacheObjects, func(cl *ditto.Client, iters int) (time.Duration, uint64) {
				next := int(cl.Stats.Sets)
				return timed(func() {
					for i := 0; i < iters; i++ {
						cl.Set(keys[(next+i)%len(keys)], val)
					}
				})
			})},
		{name: "core.mget32_host_ns_per_key", allocs: "core.mget32_allocs_per_key", per: 32,
			setup: coreProbe(readOpts, keys, objectKeys, func(cl *ditto.Client, iters int) (time.Duration, uint64) {
				ks, _ := window(0)
				return timed(func() {
					for i := 0; i < iters; i++ {
						for j := range ks {
							ks[j] = keys[idx[(i*32+j)&mask]]
						}
						_, oks := cl.MGet(ks)
						sink += uint64(len(oks))
					}
				})
			})},
		{name: "core.mset32_host_ns_per_key", allocs: "core.mset32_allocs_per_key", per: 32,
			setup: coreProbe(readOpts, keys, objectKeys, func(cl *ditto.Client, iters int) (time.Duration, uint64) {
				_, kvs := window(0)
				return timed(func() {
					for i := 0; i < iters; i++ {
						for j := range kvs {
							kvs[j].Key = keys[idx[(i*32+j)&mask]]
						}
						cl.MSet(kvs)
					}
				})
			})},
	}
}

// runProbes measures every probe: the iteration count is grown until one
// round takes at least `round`, then three rounds run and the median is
// reported, so each probe is timed for at least three times `round`.
func runProbes(round time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, pr := range probes() {
		run := pr.setup()
		iters := 16
		for {
			d, _ := run(iters)
			if d >= round/2 {
				iters = int(float64(iters)*float64(round)/float64(d)) + 1
				break
			}
			iters *= 4
		}
		var ns, allocs []float64
		for i := 0; i < 3; i++ {
			d, a := run(iters)
			units := float64(iters) * pr.per
			ns = append(ns, float64(d.Nanoseconds())/units)
			allocs = append(allocs, float64(a)/units)
		}
		scale := pr.scale
		if scale == 0 {
			scale = 1
		}
		run(0)
		out[pr.name] = median(ns) * scale
		if pr.allocs != "" {
			out[pr.allocs] = median(allocs)
		}
	}
	return out
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
