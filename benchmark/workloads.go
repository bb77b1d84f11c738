package main

import (
	"math/rand"

	"ditto"
	"ditto/internal/workload"
)

// cacheClient is what both client types of the public API offer.
type cacheClient interface {
	Get(key []byte) ([]byte, bool)
	Set(key, value []byte)
	MGet(keys [][]byte) ([][]byte, []bool)
	MSet(pairs []ditto.KV)
}

// workloadSpec is one workload: its sizes at scale 1, how its cluster is
// built, and what one closed-loop client does. Names are fixed; later
// issues cite them.
type workloadSpec struct {
	name, why  string
	clients    int
	ops        int     // key-ops per client, of which the first tenth warms up
	keys       int     // key space
	window     int     // keys per batched call; 0 for single-key calls
	callsPerOp float64 // upper bound, sizes the latency slices
	load       bool    // store every key before the clients start
	scaleOut   bool    // run the AddNode controller
	build      func(r *run)
	client     func(c *client)
}

func (w *workloadSpec) maxCalls(ops int) int { return int(float64(ops)*w.callsPerOp) + 1 }

// connect opens a cache client for p and registers its counters.
func (r *run) connect(p *ditto.Proc) cacheClient {
	if r.single != nil {
		c := r.single.NewClient(p)
		r.stats = append(r.stats, func() ditto.Stats { return c.Stats })
		return c
	}
	m := r.multi.NewClient(p)
	r.stats = append(r.stats, m.Stats)
	return m
}

const objectKeys = 20000

var workloads = []*workloadSpec{
	{
		name:    "point-read",
		why:     "one blocking verb per key-op: sim proc switches and rdma per-verb cost set host time, the one-RTT speculative Get sets virtual time; no writes, evictions or doorbells, so those layers are bypassed",
		clients: 16, ops: 100000, keys: objectKeys, callsPerOp: 1, load: true,
		build: func(r *run) {
			opts := ditto.DefaultOptions(objectKeys, objectKeys*512)
			opts.LocCacheSlots = 4096
			r.single = ditto.NewCluster(r.env, opts)
		},
		client: func(c *client) {
			r := c.r
			cl := r.connect(c.p).(*ditto.Client)
			gen := workload.NewYCSB(workload.YCSBC, objectKeys, workload.DefaultObjectSize)
			for i := 0; i < r.ops; i++ {
				if i == r.warmup {
					c.arrive()
				}
				h0 := r.tr.now()
				key := gen.Next(c.rng).Key
				h1 := r.tr.now()
				v0 := c.p.Now()
				val, ok := cl.GetAppend(c.buf[:0], r.keys[key])
				v1 := c.p.Now()
				h2 := r.tr.now()
				if ok {
					c.hit(key, val)
				}
				c.note(kGet, 1, v0, v1, h0, h1, h2, r.tr.now())
				c.opsDone(1)
			}
		},
	},
	{
		name:    "batch-mixed",
		why:     "the same read path batched, beside writes that strand location hints: exec.Doorbell, rdma.PostBatch, setPlan, free-stamp WRITEs and two-node fan-out work while one sim switch is shared by 32 keys",
		clients: 8, ops: 150000, keys: objectKeys, window: 32, callsPerOp: 2.0 / 32, load: true,
		build: func(r *run) {
			opts := ditto.DefaultOptions(2*objectKeys, objectKeys*1024)
			opts.LocCacheSlots = objectKeys
			r.multi = ditto.NewMultiCluster(r.env, 2, opts)
		},
		client: func(c *client) {
			r := c.r
			cl := r.connect(c.p)
			gen := workload.NewYCSB(workload.YCSBA, objectKeys, workload.DefaultObjectSize)
			for i := 0; i < r.ops; i += r.w.window {
				if i == r.warmup {
					c.arrive()
				}
				// One window: its writes go as one MSet, then its reads as
				// one MGet. Every write of a window carries the same tag,
				// so whichever pair of a key lands last, the value is the same.
				h0 := r.tr.now()
				kvs, rkeys, rids := c.kvs[:0], c.mkey[:0], c.mid[:0]
				tag := c.nextTag()
				for j := 0; j < r.w.window; j++ {
					req := gen.Next(c.rng)
					if !req.Write {
						rkeys, rids = append(rkeys, r.keys[req.Key]), append(rids, req.Key)
						continue
					}
					val := c.vals[len(kvs)*valueLen:][:valueLen]
					fillValue(val, req.Key, tag)
					kvs = append(kvs, ditto.KV{Key: r.keys[req.Key], Value: val})
					c.seen[req.Key] = tag
				}
				h1 := r.tr.now()
				if len(kvs) > 0 {
					v0 := c.p.Now()
					cl.MSet(kvs)
					v1 := c.p.Now()
					h2 := r.tr.now()
					c.note(kMSet, len(kvs), v0, v1, h0, h1, h2, h2)
					h0, h1 = h2, h2
				}
				if len(rkeys) > 0 {
					v0 := c.p.Now()
					vals, oks := cl.MGet(rkeys)
					v1 := c.p.Now()
					h2 := r.tr.now()
					for j, ok := range oks {
						if ok {
							c.hit(rids[j], vals[j])
						}
					}
					c.note(kMGet, len(rkeys), v0, v1, h0, h1, h2, r.tr.now())
				}
				c.opsDone(r.w.window)
			}
		},
	},
	{
		name:    "adapt-churn",
		why:     "the paper's headline path: a cache a tenth of the footprint under the LRU/LFU-changing trace, so sampling eviction, history, adaptive weights and memnode alloc/free work; no speculation, no batching",
		clients: 16, ops: 37500, keys: 40000, callsPerOp: 2,
		build: func(r *run) {
			const cacheObjects = 4000
			r.single = ditto.NewCluster(r.env, ditto.DefaultOptions(cacheObjects, cacheObjects*320))
			perPhase := r.ops * r.w.clients / 4
			r.trace = workload.Changing(perPhase, r.w.keys, r.seed).Build()
		},
		client: func(c *client) {
			r := c.r
			cl := r.connect(c.p)
			val := c.vals[:valueLen]
			// Client i replays requests i, i+clients, …: all clients move
			// through the trace's phases together, as one application would.
			for i := 0; i < r.ops; i++ {
				if i == r.warmup {
					c.arrive()
				}
				h0 := r.tr.now()
				key := r.trace[i*r.w.clients+c.id].Key
				h1 := r.tr.now()
				v0 := c.p.Now()
				got, ok := cl.Get(r.keys[key])
				v1 := c.p.Now()
				h2 := r.tr.now()
				if ok {
					c.hit(key, got)
				}
				c.note(kGet, 1, v0, v1, h0, h1, h2, r.tr.now())
				if !ok {
					// Cache-aside: fetch from the backing store, outside any
					// timed call, then fill the cache.
					c.p.Sleep(missPenalty)
					h0 = r.tr.now()
					tag := c.nextTag()
					fillValue(val, key, tag)
					c.seen[key] = tag
					h1 = r.tr.now()
					v0 = c.p.Now()
					cl.Set(r.keys[key], val)
					v1 = c.p.Now()
					h2 = r.tr.now()
					c.note(kSet, 1, v0, v1, h0, h1, h2, h2)
				}
				c.opsDone(1)
			}
		},
	},
	{
		name:    "hotspot-scaleout",
		why:     "the only workload where ring, hotset, replica fan-out, the resharder and the forwarding window run, under RNIC queueing: zipf 1.3, hot keys replicate, a fifth node joins a third of the way in",
		clients: 16, ops: 37500, keys: objectKeys, callsPerOp: 1, load: true, scaleOut: true,
		build: func(r *run) {
			opts := ditto.DefaultOptions(3*objectKeys, objectKeys*1200) // headroom for 1+3 copies of hot keys
			opts.LocCacheSlots = 4096
			opts.Fabric.MsgSvc = 300 // ~3.3 M msg/s per node: the hot node's RNIC saturates with 16 clients
			r.multi = ditto.NewMultiCluster(r.env, 4, opts)
			r.multi.EnableHotKeyReplication(3, 32, 512)
		},
		client: func(c *client) {
			r := c.r
			cl := r.connect(c.p)
			zipf := rand.NewZipf(c.rng, 1.3, 1, objectKeys-1)
			val := c.vals[:valueLen]
			for i := 0; i < r.ops; i++ {
				if i == r.warmup {
					c.arrive()
				}
				h0 := r.tr.now()
				key := zipf.Uint64()
				if c.rng.Intn(20) == 0 {
					tag := c.nextTag()
					fillValue(val, key, tag)
					c.seen[key] = tag
					h1 := r.tr.now()
					v0 := c.p.Now()
					cl.Set(r.keys[key], val)
					v1 := c.p.Now()
					h2 := r.tr.now()
					c.note(kSet, 1, v0, v1, h0, h1, h2, h2)
				} else {
					h1 := r.tr.now()
					v0 := c.p.Now()
					got, ok := cl.Get(r.keys[key])
					v1 := c.p.Now()
					h2 := r.tr.now()
					if ok {
						c.hit(key, got)
					}
					c.note(kGet, 1, v0, v1, h0, h1, h2, r.tr.now())
				}
				c.opsDone(1)
			}
		},
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
