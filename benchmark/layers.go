package main

import "slices"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives the per-layer metrics of a traced run from the counter
// snapshots taken at the boundaries of the measured phase and from the
// spans recorded around each public call.
func (r *run) layers(o *outcome, hostNs float64) map[string]float64 {
	m := map[string]float64{}
	ops, kops := float64(o.Ops), float64(o.Ops)/1000
	elapsed := float64(r.vtEnd - r.vtStart)
	a, b := r.after, r.before

	v := func(after, before int64) float64 { return float64(after - before) }
	m["rdma.reads_per_op"] = v(a.rdma.Reads, b.rdma.Reads) / ops
	m["rdma.writes_per_op"] = v(a.rdma.Writes, b.rdma.Writes) / ops
	m["rdma.cas_per_op"] = v(a.rdma.CASes, b.rdma.CASes) / ops
	m["rdma.faa_per_op"] = v(a.rdma.FAAs, b.rdma.FAAs) / ops
	m["rdma.rpcs_per_op"] = v(a.rdma.RPCs, b.rdma.RPCs) / ops
	m["rdma.async_per_op"] = v(a.rdma.AsyncOps, b.rdma.AsyncOps) / ops
	doorbells := v(a.rdma.DoorbellBatches, b.rdma.DoorbellBatches)
	m["rdma.doorbells_per_op"] = doorbells / ops
	m["rdma.verbs_per_doorbell"] = ratio(v(a.rdma.BatchedVerbs, b.rdma.BatchedVerbs), doorbells)
	m["rdma.read_bytes_per_op"] = v(a.rdma.ReadBytes, b.rdma.ReadBytes) / ops
	m["rdma.write_bytes_per_op"] = v(a.rdma.WriteBytes, b.rdma.WriteBytes) / ops

	// A node that joined during the phase has no "before": its counters
	// started at zero, which is what the missing map entry reads as.
	var served []float64
	nodes := r.nodes()
	for _, n := range nodes {
		nic := v(a.nicBusy[n.id], b.nicBusy[n.id]) / (elapsed * float64(n.MN.Node.NIC().Servers()))
		cpu := v(a.cpuBusy[n.id], b.cpuBusy[n.id]) / (elapsed * float64(n.MN.Node.CPU().Servers()))
		m["rdma.nic_util_max"] = max(m["rdma.nic_util_max"], nic)
		m["rdma.mncpu_util_max"] = max(m["rdma.mncpu_util_max"], cpu)
		served = append(served, v(a.served[n.id], b.served[n.id]))
	}
	var servedSum float64
	for _, s := range served {
		servedSum += s
	}
	m["core.read_imbalance"] = ratio(slices.Max(served)*float64(len(served)), servedSum)

	// Spans around each public call, by kind, and those overlapping the
	// scale-out.
	var byKind [nKinds][]int64
	var window []int64
	var harnessNs int64
	for i := range r.tr.spans {
		s := &r.tr.spans[i]
		switch {
		case s.name >= sCall:
			d := s.vt1 - s.vt0
			byKind[s.name-sCall] = append(byKind[s.name-sCall], d)
			if r.scaleV1 > r.scaleV0 && s.vt0 < r.scaleV1 && s.vt1 > r.scaleV0 {
				window = append(window, d)
			}
		case s.name == sNext || s.name == sVerify:
			harnessNs += s.h1 - s.h0 - r.tr.tick
		}
	}
	for k, lat := range byKind {
		slices.Sort(lat)
		m["core."+kindNames[k]+".vt_p50_us"] = percentile(lat, 0.50)
		m["core."+kindNames[k]+".vt_p99_us"] = percentile(lat, 0.99)
	}
	slices.Sort(window)
	m["core.reshard_window.vt_p99_us"] = percentile(window, 0.99)

	cs, cb := a.core, b.core
	gets := v(cs.Gets, cb.Gets)
	evictions := v(cs.Evictions, cb.Evictions)
	m["core.spec_hit_rate"] = ratio(v(cs.SpecGetHits, cb.SpecGetHits), gets)
	m["core.spec_fallback_rate"] = ratio(v(cs.SpecGetFallbacks, cb.SpecGetFallbacks), gets)
	m["core.set_retries_per_kop"] = v(cs.SetRetries, cb.SetRetries) / kops
	m["core.evictions_per_kop"] = evictions / kops
	m["core.bucket_evictions_per_kop"] = v(cs.BucketEvictions, cb.BucketEvictions) / kops
	m["core.sampled_slots_per_eviction"] = ratio(v(cs.SampledSlots, cb.SampledSlots), evictions)
	m["core.evict_resamples_per_eviction"] = ratio(v(cs.EvictResamples, cb.EvictResamples), evictions)
	var clientNs int64
	for _, c := range r.clients {
		clientNs += c.vtEnd - r.vtStart
	}
	m["core.write_stall_share"] = v(cs.WriteStallNs, cb.WriteStallNs) / float64(clientNs)
	m["core.regrets_per_kop"] = v(cs.Regrets, cb.Regrets) / kops
	m["core.spread_read_share"] = ratio(v(a.spreadReads, b.spreadReads), gets)
	m["core.reshard_ms"] = v(a.reshardNs, b.reshardNs) / 1e6
	m["core.migrated_keys"] = v(a.migratedKeys, b.migratedKeys)
	m["hotset.promotions_per_kop"] = v(a.promotions, b.promotions) / kops
	m["hotset.demotions_per_kop"] = v(a.demotions, b.demotions) / kops

	// Final state: the LFU expert's global weight (index 1 of the default
	// LRU+LFU pair), averaged over nodes, and how full the heaps are.
	var lfu float64
	var used, heap int
	for _, n := range nodes {
		lfu += n.WeightSvc.Global()[1]
		used += n.MN.UsedBytes
		heap += n.MN.HeapBytes()
	}
	m["adaptive.weight_lfu_final"] = lfu / float64(len(nodes))
	m["memnode.heap_occupancy_final"] = float64(used) / float64(heap)

	m["harness.gen_share"] = float64(harnessNs) / hostNs
	return m
}
