// Package bench is the evaluation harness: one runner per table/figure of
// the paper, each printing the same rows/series the paper reports.
// registry.go maps every experiment ID to its runner; docs/BENCHMARKS.md
// catalogs them with the schema of every JSON artifact.
//
// Absolute numbers come from the calibrated fabric model (internal/rdma);
// the reproduction target is the SHAPE: who wins, by what factor, where
// crossovers fall. Timeline experiments compress the paper's minutes-long
// phases into virtual milliseconds — the migration/elasticity behaviour is
// rate-based, so the shape is unchanged.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ditto/internal/core"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/workload"
)

// JSONPath, when non-empty, makes scenarios that support structured
// output (batched-throughput, elastic-reshard) also write a
// machine-readable JSON summary there; the CI bench-smoke step uses it
// to seed the perf trajectory (BENCH_*.json artifacts). When several
// such scenarios run in one invocation (-all), the first keeps the path
// as given and the rest write to "<path>-<scenario><ext>" so no summary
// is silently overwritten.
var JSONPath string

// jsonWrittenBy is the scenario that already claimed JSONPath this run.
var jsonWrittenBy string

// Seed, when non-zero, overrides every scenario's built-in simulation
// seed (dittobench -seed). The built-ins make each scenario
// deterministic on its own; the override lets CI pin ONE seed across
// every bench-smoke scenario so a rerun of the workflow reproduces the
// exact BENCH_*.json artifacts, and lets a developer vary the seed to
// check a result is not a seed artifact.
var Seed int64

// benchSeed returns the scenario seed: the -seed override when set,
// else the scenario's built-in default.
func benchSeed(def int64) int64 {
	if Seed != 0 {
		return Seed
	}
	return def
}

// writeJSONSummary writes a scenario's summary to JSONPath (when set)
// and notes it on w — the one artifact convention shared by every
// scenario that supports -json. A path already holding a DIFFERENT
// scenario's artifact (from an earlier invocation) is refused with an
// error instead of silently clobbering it: BENCH_*.json files seed the
// perf trajectory, and overwriting, say, BENCH_reshard.json with a
// hotspot summary would leave a stale artifact under a misleading name.
// Re-running the same scenario refreshes its artifact in place.
func writeJSONSummary(w io.Writer, payload map[string]interface{}) error {
	if JSONPath == "" {
		return nil
	}
	scenario, _ := payload["scenario"].(string)
	path := JSONPath
	if jsonWrittenBy != "" && jsonWrittenBy != scenario {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "-" + scenario + ext
	} else {
		jsonWrittenBy = scenario
	}
	if err := refuseForeignArtifact(path, scenario); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "json summary written to %s\n", path)
	return nil
}

// refuseForeignArtifact returns an error when path already holds a JSON
// summary whose "scenario" differs from scenario. A missing file, an
// unreadable file, or one with no scenario field (not one of ours) does
// not block the write.
func refuseForeignArtifact(path, scenario string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil // nothing there (or unreadable): nothing to clobber
	}
	var existing struct {
		Scenario string `json:"scenario"`
	}
	if json.Unmarshal(blob, &existing) != nil || existing.Scenario == "" {
		return nil
	}
	if existing.Scenario != scenario {
		return fmt.Errorf("bench: refusing to overwrite %s: it holds scenario %q, not %q (delete it or pass a different -json path)",
			path, existing.Scenario, scenario)
	}
	return nil
}

// Scale selects experiment sizing.
type Scale int

// Quick sizes experiments for seconds-long runs (CI); Full approaches the
// paper's relative scales (minutes-long runs).
const (
	Quick Scale = iota
	Full
)

// ParseScale parses "quick"/"full".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q", s)
}

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// Result aggregates one measured configuration.
type Result struct {
	Ops       int64
	ElapsedNs int64
	Hits      int64
	Misses    int64
	Hist      *stats.Histogram

	// HostNs and HostAllocs are the REAL cost of simulating the measured
	// phase — wall-clock nanoseconds and Go heap allocations on the host —
	// captured by hostMeter. Virtual time (ElapsedNs) answers "how fast is
	// Ditto"; these answer "how fast is the simulator's hot path", the
	// figure the zero-allocation work optimizes and the alloc gate tracks.
	HostNs     int64
	HostAllocs int64
}

// Mops returns throughput in millions of ops per second of virtual time.
func (r Result) Mops() float64 { return stats.Mops(r.Ops, r.ElapsedNs) }

// HitRate returns the hit fraction.
func (r Result) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// P50 and P99 return latency percentiles in microseconds.
func (r Result) P50() float64 { return float64(r.Hist.Percentile(50)) / 1000 }

// P99 returns the 99th-percentile latency in microseconds.
func (r Result) P99() float64 { return float64(r.Hist.Percentile(99)) / 1000 }

// HostNsPerOp returns host wall-clock nanoseconds per simulated operation.
func (r Result) HostNsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.HostNs) / float64(r.Ops)
}

// AllocsPerOp returns host heap allocations per simulated operation.
func (r Result) AllocsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.HostAllocs) / float64(r.Ops)
}

// hostMeter samples wall clock and cumulative allocation counts around a
// measured phase. The bench package is host-side instrumentation, outside
// the simulation's determinism sweep, so real time is fine here; nothing
// it reads feeds back into the simulated run.
type hostMeter struct {
	start   time.Time
	mallocs uint64
}

// startHostMeter begins a measurement window.
func startHostMeter() hostMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMeter{start: time.Now(), mallocs: ms.Mallocs}
}

// stop charges the window's host cost to res.
func (h hostMeter) stop(res *Result) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HostNs = time.Since(h.start).Nanoseconds()
	res.HostAllocs = int64(ms.Mallocs - h.mallocs)
}

// CacheOps is the operation interface shared by every system's client so
// the runners below are system-agnostic.
type CacheOps interface {
	Get(key []byte) ([]byte, bool)
	Set(key, value []byte)
}

// ClientFactory builds a system client inside a sim process.
type ClientFactory func(p *sim.Proc) CacheOps

// valueFor synthesizes a deterministic value of the request's size.
func valueFor(r workload.Req) []byte {
	n := r.Size - 16
	if n < 8 {
		n = 8
	}
	v := make([]byte, n)
	b := byte(r.Key)
	for i := range v {
		v[i] = b + byte(i)
	}
	return v
}

// RunLoad inserts every distinct key of reqs once, sharded over `clients`
// loader processes (the paper's load phase).
func RunLoad(env *sim.Env, factory ClientFactory, reqs []workload.Req, clients int) {
	shards := workload.Shard(dedup(reqs), clients)
	for _, sh := range shards {
		mine := sh
		env.Go("loader", func(p *sim.Proc) {
			c := factory(p)
			for _, r := range mine {
				c.Set(workload.KeyBytes(r.Key), valueFor(r))
			}
		})
	}
	env.Run()
}

func dedup(reqs []workload.Req) []workload.Req {
	seen := make(map[uint64]bool, len(reqs))
	out := make([]workload.Req, 0, len(reqs))
	for _, r := range reqs {
		if !seen[r.Key] {
			seen[r.Key] = true
			out = append(out, r)
		}
	}
	return out
}

// RunClosedLoop runs `clients` closed-loop clients for opsEach generator-
// driven operations each and aggregates throughput/latency (Figures 2, 14,
// 15, 25: the no-miss regime — Sets overwrite loaded keys).
func RunClosedLoop(env *sim.Env, factory ClientFactory, gen func(client int) workload.Generator,
	clients, opsEach int, seed int64) Result {

	res := Result{Hist: &stats.Histogram{}}
	start := env.Now()
	for w := 0; w < clients; w++ {
		w := w
		g := gen(w)
		env.Go("client", func(p *sim.Proc) {
			c := factory(p)
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < opsEach; i++ {
				r := g.Next(rng)
				t0 := p.Now()
				if r.Write {
					c.Set(workload.KeyBytes(r.Key), valueFor(r))
				} else if _, ok := c.Get(workload.KeyBytes(r.Key)); ok {
					res.Hits++
				} else {
					res.Misses++
				}
				res.Hist.Record(p.Now() - t0)
				res.Ops++
			}
		})
	}
	env.Run()
	res.ElapsedNs = env.Now() - start
	return res
}

// RunTrace replays a trace: each client owns a shard; a Get miss sleeps
// `penalty` (the 500 µs distributed-storage fetch of §5.4) and then Sets
// the object. loops > 1 re-runs the shard (the paper iterates the workload
// after warm-up); the first pass is warm-up and is excluded from stats.
func RunTrace(env *sim.Env, factory ClientFactory, trace []workload.Req,
	clients, loops int, penalty int64) Result {

	if loops < 2 {
		loops = 2 // one warm-up + one measured
	}
	res := Result{Hist: &stats.Histogram{}}
	shards := workload.Shard(trace, clients)
	barrier := sim.NewCond(env)
	waiting := 0
	var measureStart int64

	for w := 0; w < clients; w++ {
		mine := shards[w]
		env.Go("client", func(p *sim.Proc) {
			c := factory(p)
			for loop := 0; loop < loops; loop++ {
				if loop == 1 {
					// Synchronize the start of measurement across clients
					// (warm-up pass excluded, as in §5.4).
					waiting++
					if waiting == clients {
						measureStart = p.Now()
						barrier.Broadcast()
					} else {
						barrier.Wait(p)
					}
				}
				for _, r := range mine {
					t0 := p.Now()
					key := workload.KeyBytes(r.Key)
					hit := false
					if _, ok := c.Get(key); ok {
						hit = true
					} else {
						if penalty > 0 {
							p.Sleep(penalty)
						}
						c.Set(key, valueFor(r))
					}
					if loop >= 1 {
						if hit {
							res.Hits++
						} else {
							res.Misses++
						}
						res.Hist.Record(p.Now() - t0)
						res.Ops++
					}
				}
			}
		})
	}
	env.Run()
	res.ElapsedNs = env.Now() - measureStart
	return res
}

// DittoFactory adapts a core.Cluster to ClientFactory.
func DittoFactory(cl *core.Cluster) ClientFactory {
	return func(p *sim.Proc) CacheOps { return cl.NewClient(p) }
}

// table prints an aligned row.
func row(w io.Writer, cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		switch v := c.(type) {
		case string:
			fmt.Fprintf(w, "%-14s", v)
		case float64:
			fmt.Fprintf(w, "%12.3f", v)
		case int:
			fmt.Fprintf(w, "%12d", v)
		case int64:
			fmt.Fprintf(w, "%12d", v)
		default:
			fmt.Fprintf(w, "%12v", v)
		}
	}
	fmt.Fprintln(w)
}

// header prints a section title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
