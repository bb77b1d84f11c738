package main

// metric names one number the benchmark reports. The name carries the
// clock: vt_* is virtual time of the modelled fabric (exact per seed),
// host_* is wall time of this process.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the old value by which the metric may get
	// worse before it counts as a regression, for -compare and, through
	// BENCHMARK.json, for the driver. End-to-end only.
	Bound float64
}

// endToEnd are the metrics a user of the system would see; every one is
// reported for every workload.
var endToEnd = []metric{
	{Name: "vt_mops", Unit: "Mops/s", Better: "higher", Bound: 0.02},
	{Name: "vt_p50_us", Unit: "us", Better: "lower", Bound: 0.02},
	{Name: "vt_p99_us", Unit: "us", Better: "lower", Bound: 0.05},
	{Name: "hit_rate", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "host_ns_per_op", Unit: "ns/op", Better: "lower", Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.05},
	{Name: "host_alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.06},
	{Name: "host_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "error_share", Unit: "ratio", Better: "lower"}, // any failed call is a regression
}

// traced are the per-layer metrics read from one traced run of a
// workload: counts at each layer's public boundary before and after the
// measured phase, and virtual-time spans around each public call. All
// are exact per seed. A metric that cannot occur on a workload is 0.
var traced = []metric{
	{Name: "rdma.reads_per_op", Unit: "verbs/op", Better: "lower"},
	{Name: "rdma.writes_per_op", Unit: "verbs/op", Better: "lower"},
	{Name: "rdma.cas_per_op", Unit: "verbs/op", Better: "lower"},
	{Name: "rdma.faa_per_op", Unit: "verbs/op", Better: "lower"},
	{Name: "rdma.rpcs_per_op", Unit: "rpcs/op", Better: "lower"},
	{Name: "rdma.async_per_op", Unit: "verbs/op", Better: "lower"},
	{Name: "rdma.doorbells_per_op", Unit: "doorbells/op", Better: "lower"},
	{Name: "rdma.verbs_per_doorbell", Unit: "verbs", Better: "higher"},
	{Name: "rdma.read_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "rdma.write_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "rdma.nic_util_max", Unit: "ratio", Better: "lower"},
	{Name: "rdma.mncpu_util_max", Unit: "ratio", Better: "lower"},

	{Name: "core.get.vt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.get.vt_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.set.vt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.set.vt_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.mget.vt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.mget.vt_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.mset.vt_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.mset.vt_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.reshard_window.vt_p99_us", Unit: "us", Better: "lower"},

	{Name: "core.spec_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.spec_fallback_rate", Unit: "ratio", Better: "lower"},
	{Name: "core.set_retries_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.evictions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.bucket_evictions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.sampled_slots_per_eviction", Unit: "slots", Better: "lower"},
	{Name: "core.evict_resamples_per_eviction", Unit: "ratio", Better: "lower"},
	{Name: "core.write_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "core.regrets_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.read_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.spread_read_share", Unit: "ratio", Better: "higher"},
	{Name: "core.reshard_ms", Unit: "ms", Better: "lower"},
	{Name: "core.migrated_keys", Unit: "keys", Better: "lower"},

	{Name: "hotset.promotions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "hotset.demotions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "adaptive.weight_lfu_final", Unit: "ratio", Better: "higher"},
	{Name: "memnode.heap_occupancy_final", Unit: "ratio", Better: "higher"},

	{Name: "harness.gen_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.host_cpu_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// probed are the host-time metrics of single layers, each measured by
// driving the layer's public functions directly in a tight loop: a host
// span around a blocking call in a multi-client sim run contains other
// procs' work and means nothing. They do not depend on the workload.
var probed = []metric{
	{Name: "sim.switch_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.acquire_host_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.read_host_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.batch_verb_host_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.async_host_ns", Unit: "ns", Better: "lower"},
	{Name: "memnode.alloc_free_host_ns", Unit: "ns", Better: "lower"},
	{Name: "memnode.new_host_us_per_mb", Unit: "us/MB", Better: "lower"},
	{Name: "hashtable.keyhash_host_ns", Unit: "ns", Better: "lower"},
	{Name: "hashtable.decode_bucket_host_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.serial_stage_host_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.doorbell_stage_host_ns", Unit: "ns", Better: "lower"},
	{Name: "loccache.lookup_host_ns", Unit: "ns", Better: "lower"},
	{Name: "loccache.record_host_ns", Unit: "ns", Better: "lower"},
	{Name: "fccache.add_host_ns", Unit: "ns", Better: "lower"},
	{Name: "cachealgo.priority_host_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.owner_host_ns", Unit: "ns", Better: "lower"},
	{Name: "hotset.lookup_host_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.get_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.set_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.evict_set_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.mget32_host_ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "core.mset32_host_ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "core.get_allocs", Unit: "allocs", Better: "lower"},
	{Name: "core.set_allocs", Unit: "allocs", Better: "lower"},
	{Name: "core.mget32_allocs_per_key", Unit: "allocs/key", Better: "lower"},
	{Name: "core.mset32_allocs_per_key", Unit: "allocs/key", Better: "lower"},
}

// worse returns by how much v is worse than old (negative when better).
func (m metric) worse(old, v float64) float64 {
	if m.Better == "higher" {
		return old - v
	}
	return v - old
}
