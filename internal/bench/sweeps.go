package bench

import (
	"fmt"
	"io"

	"ditto/internal/core"
	"ditto/internal/sim"
	"ditto/internal/workload"
)

// The sweeps below are the ablation benches docs/BENCHMARKS.md lists for
// Ditto's tunable design choices. They are not figures in the paper — the
// paper reports only the grid-searched defaults (K=5, t=10, batch=100,
// history=cache size) — but they regenerate the trade-offs behind those
// choices.

// runSweepPoint replays the webmail stand-in against one configuration.
func runSweepPoint(scale Scale, mod func(*core.Options)) Result {
	n := scale.pick(30000, 150000)
	fp := scale.pick(4000, 20000)
	clients := scale.pick(8, 32)
	trace := workload.Webmail(n, fp, 301).Build()
	capObjs := fp / 10
	env := sim.NewEnv(51)
	opts := core.DefaultOptions(capObjs, capObjs*objClassBytes)
	mod(&opts)
	cl := core.NewCluster(env, opts)
	return RunTrace(env, DittoFactory(cl), trace, clients, 2, 0)
}

// SweepSampleK regenerates the sample-size trade-off: larger K approaches
// the exact policy (hit rate) but costs larger sample READs.
func SweepSampleK(w io.Writer, scale Scale) error {
	header(w, "Ablation sweep: eviction sample size K (paper default 5)")
	row(w, "K", "tput(Mops)", "hit rate")
	for _, k := range []int{1, 3, 5, 8, 16} {
		r := runSweepPoint(scale, func(o *core.Options) { o.SampleK = k })
		row(w, fmt.Sprintf("%d", k), r.Mops(), r.HitRate())
	}
	return nil
}

// SweepFCThreshold regenerates the FC-cache threshold trade-off: larger t
// combines more FAAs but lets remote counters lag further.
func SweepFCThreshold(w io.Writer, scale Scale) error {
	header(w, "Ablation sweep: FC cache threshold t (paper default 10)")
	row(w, "t", "tput(Mops)", "hit rate")
	for _, t := range []uint64{1, 5, 10, 25, 100} {
		r := runSweepPoint(scale, func(o *core.Options) { o.FCThreshold = t })
		row(w, fmt.Sprintf("%d", t), r.Mops(), r.HitRate())
	}
	return nil
}

// SweepBatchSize regenerates the lazy-weight-update batch trade-off:
// larger batches reduce controller RPCs but slow global convergence.
func SweepBatchSize(w io.Writer, scale Scale) error {
	header(w, "Ablation sweep: weight-update batch size (paper default 100)")
	row(w, "batch", "tput(Mops)", "hit rate")
	for _, b := range []int{1, 10, 100, 1000} {
		r := runSweepPoint(scale, func(o *core.Options) { o.BatchSize = b })
		row(w, fmt.Sprintf("%d", b), r.Mops(), r.HitRate())
	}
	return nil
}

// SweepHistorySize regenerates the eviction-history capacity trade-off:
// larger histories collect more regrets (faster adaptation) at more
// metadata (paper default: cache size in objects, after LeCaR).
func SweepHistorySize(w io.Writer, scale Scale) error {
	header(w, "Ablation sweep: eviction history size (paper default = cache size)")
	row(w, "history/cache", "tput(Mops)", "hit rate")
	for _, frac := range []float64{0.25, 0.5, 1, 2, 4} {
		r := runSweepPoint(scale, func(o *core.Options) {
			o.HistorySize = int(float64(o.ExpectedObjects) * frac)
		})
		row(w, fmt.Sprintf("%.2fx", frac), r.Mops(), r.HitRate())
	}
	return nil
}

// SweepMultiMN measures throughput scaling across memory nodes (the §5.1
// compatibility note): the aggregate NIC message rate scales with MNs.
func SweepMultiMN(w io.Writer, scale Scale) error {
	header(w, "Ablation sweep: multiple memory nodes (aggregate RNIC scaling)")
	keys := scale.pick(4000, 20000)
	clients := scale.pick(64, 128)
	opsEach := scale.pick(500, 2000)
	row(w, "MNs", "tput(Mops)")
	for _, n := range []int{1, 2, 4} {
		env := sim.NewEnv(52)
		mc := core.NewMultiCluster(env, n, core.DefaultOptions(keys*2, keys*512))
		factory := func(p *sim.Proc) CacheOps { return mc.NewClient(p) }
		RunLoad(env, factory, loadKeys(keys), 16)
		r := RunClosedLoop(env, factory, ycsbGen(workload.YCSBC, keys), clients, opsEach, 5)
		row(w, fmt.Sprintf("%d", n), r.Mops())
	}
	return nil
}
