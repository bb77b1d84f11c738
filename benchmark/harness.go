package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"ditto"
	"ditto/internal/rdma"
	"ditto/internal/sim"
	"ditto/internal/workload"
)

// Every value the harness stores is f(key, tag): 8 bytes of key, 8 bytes
// of tag (writer id in the top 16 bits, the writer's own write sequence
// below), then a word pattern derived from both. A Get hit is checked
// against all of it.
const (
	valueLen    = 240
	loaderID    = 0xffff
	missPenalty = 500 * ditto.Microsecond
)

// sliceOps is how many measured key-ops one host-time slice covers. The
// simulation is deterministic, so slice k is the same simulated work in
// every repeat of a run, and the repeats' times for it can be compared.
const sliceOps = 1024

func fillValue(buf []byte, key, tag uint64) {
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint64(buf[8:], tag)
	w := key*0x9e3779b97f4a7c15 ^ tag
	for off := 16; off < valueLen; off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], w)
		w++
	}
}

// checkValue reports whether v is a value the harness wrote under key,
// and returns its tag.
func checkValue(v []byte, key uint64) (tag uint64, ok bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v) != key {
		return 0, false
	}
	tag = binary.LittleEndian.Uint64(v[8:])
	w := key*0x9e3779b97f4a7c15 ^ tag
	for off := 16; off < valueLen; off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != w {
			return tag, false
		}
		w++
	}
	return tag, true
}

// keyTable renders keys 0..n-1 once, in workload.KeyBytes' format, so the
// measured loops neither format nor allocate keys.
func keyTable(n int) [][]byte {
	arena := make([]byte, 0, n*16)
	keys := make([][]byte, n)
	for i := range keys {
		start := len(arena)
		arena = fmt.Appendf(arena, "k%015x", i)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	return keys
}

// kind labels a public cache call.
type kind uint8

const (
	kGet kind = iota
	kSet
	kMGet
	kMSet
	nKinds
)

var kindNames = [nKinds]string{"get", "set", "mget", "mset"}

// counters is one snapshot of every layer's public counters.
type counters struct {
	rdma         rdma.Stats    // summed over nodes
	nicBusy      map[int]int64 // by node id
	cpuBusy      map[int]int64
	served       map[int]int64
	core         ditto.Stats
	promotions   int64
	demotions    int64
	spreadReads  int64
	reshardNs    int64
	migratedKeys int64
}

// run is one execution of a workload: set-up, then the measured phase.
type run struct {
	w      *workloadSpec
	seed   int64
	ops    int // key-ops per client, warm-up included
	warmup int // of which warm-up
	tr     *tracer

	env     *ditto.Env
	single  *ditto.Cluster
	multi   *ditto.MultiCluster
	keys    [][]byte
	trace   []workload.Req // adapt-churn: the pre-built request trace
	clients []*client
	stats   []func() ditto.Stats // one per cache client, in creation order

	barrier        *sim.Cond
	arrived, ended int
	third          *sim.Cond // hotspot-scaleout: a third of the measured ops are done
	doneOps        int64     // measured key-ops completed, all clients
	thirdAt        int64
	slices         []int64 // host ns since setupEnd at every sliceOps-th measured key-op

	t0                 time.Time
	setupEnd, hostEnd  time.Time
	vtStart, vtEnd     int64
	scaleV0, scaleV1   int64 // virtual span of AddNode+WaitReshard
	mem0, mem1         runtime.MemStats
	cpu0, cpu1         int64
	before, after      counters
	liveBytes          uint64
	panicked           string
	spanRun, spanSetup int32
	spanWarm, spanMeas int32
}

// client is one closed-loop client of a run.
type client struct {
	r   *run
	id  int
	p   *ditto.Proc
	rng *rand.Rand

	seen []uint64 // per key: tag last written or read here
	seq  uint64   // own write sequence
	buf  []byte   // GetAppend destination
	vals []byte   // arena of values being written
	kvs  []ditto.KV
	mkey [][]byte
	mid  []uint64

	measuring  bool
	lat        []int64 // virtual ns of each measured call
	calls      [nKinds]int64
	ops, gets  int64
	hits, errs int64
	allCalls   int64
	vtEnd      int64
}

func newRun(w *workloadSpec, seed int64, scale float64, tr *tracer) *run {
	ops := int(float64(w.ops) * scale)
	if w.window > 0 {
		ops = ops / w.window * w.window
	}
	r := &run{w: w, seed: seed, ops: ops, warmup: ops / 10, tr: tr}
	if w.window > 0 {
		r.warmup = r.warmup / w.window * w.window
	}
	r.slices = make([]int64, 0, r.measuredOps()/sliceOps+1)
	return r
}

func (r *run) measuredOps() int64 { return int64(r.ops-r.warmup) * int64(r.w.clients) }

// node is one memory node of the pool under its stable id.
type node struct {
	id int
	*ditto.Cluster
}

// nodes lists the pool's memory nodes, in the pool's own order.
func (r *run) nodes() []node {
	if r.single != nil {
		return []node{{0, r.single}}
	}
	var ns []node
	for i := 0; i < r.multi.NumNodes(); i++ {
		ns = append(ns, node{r.multi.NodeID(i), r.multi.Node(i)})
	}
	return ns
}

func (r *run) snapshot() counters {
	c := counters{nicBusy: map[int]int64{}, cpuBusy: map[int]int64{}, served: map[int]int64{}}
	for _, n := range r.nodes() {
		addVerbs(&c.rdma, n.MN.Node.Stats)
		c.nicBusy[n.id] = n.MN.Node.NIC().Busy
		c.cpuBusy[n.id] = n.MN.Node.CPU().Busy
		c.served[n.id] = n.ServedReads()
	}
	for _, f := range r.stats {
		c.core.Add(f())
	}
	if mc := r.multi; mc != nil {
		c.promotions, c.demotions, c.spreadReads = mc.Promotions, mc.Demotions, mc.SpreadReads
		c.reshardNs, c.migratedKeys = mc.ReshardNs, mc.MigratedKeys
	}
	return c
}

func addVerbs(dst *rdma.Stats, s rdma.Stats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.CASes += s.CASes
	dst.FAAs += s.FAAs
	dst.RPCs += s.RPCs
	dst.AsyncOps += s.AsyncOps
	dst.ReadBytes += s.ReadBytes
	dst.WriteBytes += s.WriteBytes
	dst.DoorbellBatches += s.DoorbellBatches
	dst.BatchedVerbs += s.BatchedVerbs
}

// cpuNs returns the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// execute runs the workload once: build, load, warm-up to a barrier, then
// the measured phase. r keeps the cluster referenced while the live heap
// is read.
func (r *run) execute() {
	runtime.GC()
	w := r.w
	r.t0 = time.Now()
	r.spanRun = r.tr.open(0, -1, sRun, 0)
	r.spanSetup = r.tr.open(r.spanRun, -1, sSetup, 0)

	s := r.tr.open(r.spanSetup, -1, sBuild, 0)
	r.env = ditto.NewEnv(r.seed)
	r.barrier = sim.NewCond(r.env)
	r.third = sim.NewCond(r.env)
	r.keys = keyTable(w.keys)
	w.build(r)
	r.tr.close(s, 0)

	if w.load {
		s = r.tr.open(r.spanSetup, -1, sLoad, 0)
		r.loadAll()
		r.tr.close(s, r.env.Now())
	}

	r.spanWarm = r.tr.open(r.spanSetup, -1, sWarmup, r.env.Now())
	for i := 0; i < w.clients; i++ {
		c := r.newClient(i)
		r.env.Go("client", func(p *ditto.Proc) {
			c.p = p
			defer c.recovered()
			w.client(c)
			c.finish()
		})
	}
	if w.scaleOut {
		r.env.Go("controller", r.scaleOut)
	}
	r.env.Run()

	if r.ended == w.clients {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.liveBytes = ms.HeapAlloc
	} else if r.panicked == "" {
		r.panicked = fmt.Sprintf("only %d of %d clients finished", r.ended, w.clients)
	}
	r.tr.close(r.spanRun, r.env.Now())
}

// loadAll stores every key once, sharded over 16 loader procs.
func (r *run) loadAll() {
	const loaders = 16
	for l := 0; l < loaders; l++ {
		r.env.Go("loader", func(p *ditto.Proc) {
			set := r.connect(p).Set
			val := make([]byte, valueLen)
			for k := l; k < len(r.keys); k += loaders {
				fillValue(val, uint64(k), loaderID<<48)
				set(r.keys[k], val)
			}
		})
	}
	r.env.Run()
}

func (r *run) newClient(id int) *client {
	w := r.w
	c := &client{
		r:    r,
		id:   id,
		rng:  rand.New(rand.NewSource(r.seed*1000 + int64(id))),
		seen: make([]uint64, w.keys),
		buf:  make([]byte, 0, 2*valueLen),
		lat:  make([]int64, 0, w.maxCalls(r.ops-r.warmup)),
	}
	n := max(w.window, 1)
	c.vals = make([]byte, n*valueLen)
	c.kvs = make([]ditto.KV, 0, n)
	c.mkey = make([][]byte, 0, n)
	c.mid = make([]uint64, 0, n)
	r.clients = append(r.clients, c)
	return c
}

// arrive is the barrier between warm-up and the measured phase: the last
// client to arrive snapshots every counter, starts the host clocks and
// releases the others.
func (c *client) arrive() {
	r := c.r
	r.arrived++
	if r.arrived < r.w.clients {
		r.barrier.Wait(c.p)
	} else {
		r.before = r.snapshot()
		r.vtStart = c.p.Now()
		r.tr.close(r.spanWarm, r.vtStart)
		r.tr.close(r.spanSetup, r.vtStart)
		r.spanMeas = r.tr.open(r.spanRun, -1, sMeasure, r.vtStart)
		runtime.ReadMemStats(&r.mem0)
		r.cpu0 = cpuNs()
		r.setupEnd = time.Now()
		r.barrier.Broadcast()
	}
	c.measuring = true
}

// finish ends the client's measured phase; the last client to finish
// stops the host clocks and snapshots the counters again.
func (c *client) finish() {
	r := c.r
	c.vtEnd = c.p.Now()
	c.measuring = false
	r.ended++
	if r.ended < r.w.clients {
		return
	}
	r.hostEnd = time.Now()
	r.cpu1 = cpuNs()
	runtime.ReadMemStats(&r.mem1)
	r.vtEnd = c.vtEnd
	r.after = r.snapshot()
	r.tr.close(r.spanMeas, r.vtEnd)
}

// recovered turns a panic inside a client into a failed call. The client
// still passes the barrier, so the other clients run to the end and the
// run is reported as incorrect instead of being lost.
func (c *client) recovered() {
	v := recover()
	if v == nil {
		return
	}
	r := c.r
	if r.panicked == "" {
		r.panicked = fmt.Sprint(v)
	}
	c.errs++
	c.allCalls++
	if !c.measuring {
		c.arrive()
	}
	c.finish()
}

// note records one finished call: [v0,v1] is its virtual span, and in a
// traced run [h0,h1] is the host span of generating its input, [h1,h2] of
// the call itself and [h2,h3] of verifying its result.
func (c *client) note(k kind, keys int, v0, v1, h0, h1, h2, h3 int64) {
	c.allCalls++
	if !c.measuring {
		return
	}
	c.calls[k]++
	c.lat = append(c.lat, v1-v0)
	if k == kGet || k == kMGet {
		c.gets += int64(keys)
	}
	if tr := c.r.tr; tr != nil {
		if h1 > h0 {
			tr.add(c.r.spanMeas, c.id, sNext, keys, v0, v0, h0, h1)
		}
		tr.add(c.r.spanMeas, c.id, sCall+uint8(k), keys, v0, v1, h1, h2)
		if h3 > h2 {
			tr.add(c.r.spanMeas, c.id, sVerify, keys, v1, v1, h2, h3)
		}
	}
}

// opsDone counts finished key-ops of the measured phase, and wakes the
// scale-out controller when a third of them are done.
func (c *client) opsDone(n int) {
	if !c.measuring {
		return
	}
	c.ops += int64(n)
	r := c.r
	r.doneOps += int64(n)
	if r.doneOps >= int64(len(r.slices)+1)*sliceOps {
		r.slices = append(r.slices, int64(time.Since(r.setupEnd)))
	}
	if r.thirdAt > 0 && r.doneOps >= r.thirdAt {
		r.thirdAt = 0
		r.third.Broadcast()
	}
}

// hit verifies a Get hit: the value must be one the harness wrote under
// this key, and a writer's versions of a key must never go backwards
// for this client — its own writes included.
func (c *client) hit(key uint64, v []byte) {
	tag, ok := checkValue(v, key)
	if !ok || (tag>>48 == c.seen[key]>>48 && tag < c.seen[key]) {
		c.errs++
	}
	c.seen[key] = tag
	if c.measuring {
		c.hits++
	}
}

// nextTag advances the client's write sequence.
func (c *client) nextTag() uint64 {
	c.seq++
	return uint64(c.id)<<48 | c.seq
}

// scaleOut is hotspot-scaleout's controller: when a third of the measured
// ops are done it adds a memory node and waits for the reshard, so the
// reshard overlaps the same share of the work on every commit.
func (r *run) scaleOut(p *ditto.Proc) {
	r.thirdAt = r.measuredOps() / 3
	r.third.Wait(p)
	s := r.tr.open(r.spanMeas, -1, sScaleout, p.Now())
	r.scaleV0 = p.Now()
	r.multi.AddNode()
	r.multi.WaitReshard(p)
	r.scaleV1 = p.Now()
	r.tr.close(s, r.scaleV1)
}

// percentile returns the q-quantile of sorted nanosecond samples, in µs.
// Virtual latencies are whole nanoseconds and pile up on few values, so a
// tie is treated as spread evenly over its 1 ns bin (the grouped-data
// quantile): the result is within half a nanosecond of the order
// statistic, and still tells apart two runs whose samples differ only in
// how many fall on each value.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	v := sorted[min(int(rank), n-1)]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	return (float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)) / 1000
}

// outcome is what one run measured: the end-to-end metrics, and — from a
// traced run — the per-layer ones.
type outcome struct {
	E2E       map[string]float64
	Layers    map[string]float64
	Calls     int64 // measured calls
	KindCalls [nKinds]int64
	Ops       int64 // measured key-ops
	Attempted int64 // every call, warm-up included
	Failed    int64
	HostCPUNs float64 // per op
	Slices    []int64 // host ns of each slice of sliceOps key-ops; the last holds the remainder
	NodeReads int64   // rdma READs of the measured phase, for reconciliation
	Panic     string
}

func (r *run) outcome() *outcome {
	o := &outcome{E2E: map[string]float64{}, Panic: r.panicked}
	var lat []int64
	var gets, hits int64
	for _, c := range r.clients {
		lat = append(lat, c.lat...)
		o.Ops += c.ops
		gets += c.gets
		hits += c.hits
		o.Failed += c.errs
		o.Attempted += c.allCalls
		for k, n := range c.calls {
			o.KindCalls[k] += n
			o.Calls += n
		}
	}
	if r.ended < r.w.clients || o.Ops == 0 {
		return o
	}
	slices.Sort(lat)
	ops := float64(o.Ops)
	hostNs := float64(r.hostEnd.Sub(r.setupEnd).Nanoseconds())
	o.E2E["vt_mops"] = ops / float64(r.vtEnd-r.vtStart) * 1e3
	o.E2E["vt_p50_us"] = percentile(lat, 0.50)
	o.E2E["vt_p99_us"] = percentile(lat, 0.99)
	o.E2E["hit_rate"] = float64(hits) / float64(gets)
	o.E2E["host_ns_per_op"] = hostNs / ops
	o.E2E["host_allocs_per_op"] = float64(r.mem1.Mallocs-r.mem0.Mallocs) / ops
	o.E2E["host_alloc_bytes_per_op"] = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / ops
	o.E2E["host_live_mb"] = float64(r.liveBytes) / (1 << 20)
	o.E2E["setup_s"] = r.setupEnd.Sub(r.t0).Seconds()
	o.E2E["error_share"] = float64(o.Failed) / float64(o.Attempted)
	o.HostCPUNs = float64(r.cpu1-r.cpu0) / ops
	var prev int64
	for _, t := range append(r.slices, int64(hostNs)) {
		o.Slices = append(o.Slices, t-prev)
		prev = t
	}
	o.NodeReads = r.after.rdma.Reads - r.before.rdma.Reads
	if r.tr != nil {
		o.Layers = r.layers(o, hostNs)
	}
	return o
}
