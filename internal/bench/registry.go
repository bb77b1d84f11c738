package bench

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one table or figure.
type Runner func(w io.Writer, scale Scale) error

// Experiment is a registered runner plus the provenance line shown by
// RunAll and `dittobench -list`: which figure or table of the paper the
// ID reproduces (or, for the extra sweeps, what design question it
// answers).
type Experiment struct {
	Run  Runner
	Desc string
}

// Experiments maps experiment IDs (as accepted by dittobench -fig /
// -table) to their runners. IDs "1"–"25" reproduce the paper's figures,
// "table3" its Table 3; the "abl-*" sweeps and "elastic-reshard" are
// extensions of this reproduction (design-choice ablations and the
// multi-MN elasticity scenario the paper only sketches in §5.1).
var Experiments = map[string]Experiment{
	"1":      {Fig01, "Figure 1: Redis resource adjustment — scale out/in with stop-the-world migration (motivation)"},
	"2":      {Fig02, "Figure 2: single-client performance and multi-client throughput (YCSB-C, no misses)"},
	"3":      {Fig03, "Figure 3: hit rate vs. client split between LRU- and LFU-friendly apps (motivation)"},
	"4":      {Fig04, "Figure 4: LRU vs LFU across cache sizes on the webmail-like workload (motivation)"},
	"5":      {Fig05, "Figure 5: hit-rate sensitivity to client count (CDF and per-count series)"},
	"13":     {Fig13, "Figure 13: Ditto under dynamic compute/memory adjustment, no migration"},
	"14":     {Fig14, "Figure 14: YCSB throughput vs. client count against the baselines"},
	"15":     {Fig15, "Figure 15: latency percentiles under load"},
	"16":     {Fig16, "Figure 16: penalized throughput on the five real-world trace stand-ins"},
	"17":     {Fig17, "Figure 17: hit rates on the five real-world trace stand-ins"},
	"18":     {Fig18, "Figure 18: relative hit rate over the workload suite (vs random eviction)"},
	"19":     {Fig19, "Figure 19: adaptivity to a changing workload (4 phases, LRU↔LFU friendly)"},
	"20":     {Fig20, "Figure 20: hit rate vs proportion of LRU-app clients (relative to Ditto-LRU)"},
	"21":     {Fig21, "Figure 21: hit rate under dynamically growing client counts"},
	"22":     {Fig22, "Figure 22: hit rate under dynamically growing cache size"},
	"23":     {Fig23, "Figure 23: the 12 integrated caching algorithms (throughput and hit rate)"},
	"24":     {Fig24, "Figure 24: ablation of the sample-friendly table, lightweight history and lazy weights"},
	"25":     {Fig25, "Figure 25: throughput/p99 vs client-side FC cache size (YCSB-C)"},
	"table3": {Table3, "Table 3: integration effort (LOC) and access information of the 12 algorithms"},
	// Design-choice ablation sweeps (docs/BENCHMARKS.md) — not paper figures.
	"abl-k":     {SweepSampleK, "Sweep: eviction sample size K (paper default 5)"},
	"abl-fct":   {SweepFCThreshold, "Sweep: FC cache combining threshold t (paper default 10)"},
	"abl-batch": {SweepBatchSize, "Sweep: lazy weight-update batch size (paper default 100)"},
	"abl-hist":  {SweepHistorySize, "Sweep: eviction history size (paper default = cache size)"},
	"abl-mn":    {SweepMultiMN, "Sweep: static multi-MN deployments (aggregate RNIC scaling)"},
	// Elasticity beyond the paper's single-MN evaluation (§5.1 note).
	"elastic-reshard": {ElasticReshard, "Elastic scale-out 2→4 MNs with live resharding, serial vs doorbell resharder (hit rate, throughput, reshard time)"},
	// Doorbell-batched multi-key pipeline (MGet/MSet) — extension.
	"batched-throughput": {BatchedThroughput, "Doorbell-batched MGet/MSet vs sequential ops across batch sizes 1/8/32/128 (YCSB-C and mixed), location cache off/on: spec_get_hit_rate and verbs_per_get per row"},
	// Hot-key replication with load-aware read spreading — extension.
	"hotspot": {Hotspot, "Hot-key replication on a zipfian read-heavy workload, 4 MNs: throughput and per-node read imbalance, replicated vs unreplicated, location cache off/on (speculative one-RTT Gets)"},
	// Eviction as verb plans + proactive background reclaim — extension.
	"churn": {Churn, "Write-heavy zipf churn at ~100% occupancy: Set p99 and eviction-stall time, inline-serial vs background-doorbell reclaim"},
	// Fault injection: crash + replacement under load — extension.
	"chaos": {Chaos, "MN crash + replacement under flash-crowd load: recovery time, error window, post-fault hit rate (seed-reproducible)"},
	// Multi-tenant quotas + TTL leases + overload shedding — extension.
	"tenants": {Tenants, "Noisy-neighbor isolation: in-quota tenant p99/hit rate solo vs alongside an over-quota churn tenant, with and without quota steering + overload shedding"},
}

// IDs returns the experiment IDs in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		li, lj := len(ids[i]), len(ids[j])
		if li != lj {
			return li < lj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Describe returns the provenance line for an experiment ID ("" when
// unknown).
func Describe(id string) string { return Experiments[id].Desc }

// Run executes one experiment by ID.
func Run(id string, w io.Writer, scale Scale) error {
	e, ok := Experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(w, scale)
}

// RunAll executes every experiment in order, announcing each ID with the
// figure/table it reproduces.
func RunAll(w io.Writer, scale Scale) error {
	for _, id := range IDs() {
		fmt.Fprintf(w, "\n[%s] %s\n", id, Describe(id))
		if err := Run(id, w, scale); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}
