// Command benchmark is the repository's performance gate: four
// workloads, two clocks, per-layer counts, spans and host probes. See
// README.md for the workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh -seed 7 -out report.json      every workload, 5 repeats each, a traced run, the probes
//	bash benchmark/run.sh -seed 7 -trace spans.jsonl    … and write the traced runs' spans as JSON lines
//	bash benchmark/run.sh -compare old.json new.json    apply the bounds; exit 1 on any "worse"
//	bash benchmark/run.sh --workload point-read --seed 7 --seconds 15 --trace 0
//	                                                    one workload, one JSON object as the last line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultScale multiplies every workload's op count. 1 is the sizing of
// workloads.go; 1.2 keeps every measured phase above 3 s on the 2-core
// box this was written on.
const defaultScale = 1.2

// repeats is how often a workload runs, untraced, with the same seed. It
// is a constant, not a function of how fast the host is: host_ns_per_op
// (see floorNsPerOp) falls with every further repeat, so two reports
// compare only when both took the same number.
const repeats = 5

// result is a workload measured: its untraced repeats and, when asked
// for, one traced run.
type result struct {
	w       *workloadSpec
	repeats []*outcome
	traced  *outcome
	tr      *tracer
}

// measure runs w n times, then once more traced if asked.
func measure(w *workloadSpec, seed int64, scale float64, n int, trace bool) *result {
	res := &result{w: w}
	for len(res.repeats) < n {
		r := newRun(w, seed, scale, nil)
		r.execute()
		o := r.outcome()
		res.repeats = append(res.repeats, o)
		if o.Panic != "" {
			return res
		}
	}
	if trace {
		r := newRun(w, seed, scale, nil)
		res.tr = newTracer(w.name, int(3.2*float64(r.measuredOps())*w.callsPerOp)+64) // ≤ 3 spans per call, and the phases
		r.tr = res.tr
		r.execute()
		res.traced = r.outcome()
	}
	return res
}

// floorNsPerOp is host_ns_per_op: for each slice of the measured phase,
// the fastest of the repeats' host times, summed, per key-op. The repeats
// do identical simulated work slice by slice, so what differs between
// them is the host's interference, and that only ever adds: on the shared
// 2-core VM this was written on, a fixed unit of work read between 0.6 and
// 1.2 ms within any one second while the fastest reading of each second
// stayed within 5 %. Over six runs per workload on a busy machine the
// median of the 5 whole-phase times spread 8 to 16 % (distance between
// quartiles over the median) and up to 31 % end to end; this, 3 to 8 % and
// up to 11 %. README.md has the table.
func floorNsPerOp(repeats []*outcome) float64 {
	var sum int64
	for k := range repeats[0].Slices {
		best := repeats[0].Slices[k]
		for _, o := range repeats[1:] {
			best = min(best, o.Slices[k])
		}
		sum += best
	}
	return float64(sum) / float64(repeats[0].Ops)
}

// exact lists the end-to-end metrics that are virtual time or counts:
// the same seed must give the same value, to the last digit.
func exact(name string) bool { return !strings.HasPrefix(name, "host_") && name != "setup_s" }

// report folds the repeats into one value per metric — the median for
// host metrics, the slice-wise floor for host_ns_per_op, whose Repeats
// stay the whole-phase time of each repeat — and checks everything that
// must hold on every run: no failed call, no panic, and byte-identical
// virtual-time metrics.
func (res *result) report() (*workloadReport, error) {
	first := res.repeats[0]
	wr := &workloadReport{Name: res.w.name, Ops: first.Ops, Calls: first.Calls, EndToEnd: map[string]value{}}
	var errs []error
	all := res.repeats
	if res.traced != nil {
		all = append(all[:len(all):len(all)], res.traced)
	}
	for _, o := range all {
		wr.Attempted += o.Attempted
		wr.Failed += o.Failed
		if o.Panic != "" {
			errs = append(errs, fmt.Errorf("%s: %s", res.w.name, o.Panic))
		}
	}
	if wr.Failed > 0 {
		errs = append(errs, fmt.Errorf("%s: %d of %d calls failed", res.w.name, wr.Failed, wr.Attempted))
	}
	if first.Ops == 0 || first.Panic != "" {
		return wr, errors.Join(errs...) // nothing was measured
	}
	for _, m := range endToEnd {
		v := value{Unit: m.Unit}
		for _, o := range res.repeats {
			v.Repeats = append(v.Repeats, o.E2E[m.Name])
		}
		v.Value = median(v.Repeats)
		if m.Name == "host_ns_per_op" {
			v.Value = floorNsPerOp(res.repeats)
		}
		if exact(m.Name) {
			for _, o := range all {
				if o.E2E[m.Name] != first.E2E[m.Name] {
					errs = append(errs, fmt.Errorf("%s: %s is not deterministic: %v vs %v", res.w.name, m.Name, first.E2E[m.Name], o.E2E[m.Name]))
					break
				}
			}
			v.Value, v.Repeats = first.E2E[m.Name], nil
		}
		wr.EndToEnd[m.Name] = v
	}
	if t := res.traced; t != nil && t.Layers != nil {
		wr.PerLayer = map[string]value{}
		var cpu []float64
		for _, o := range res.repeats {
			cpu = append(cpu, o.HostCPUNs)
		}
		t.Layers["harness.host_cpu_ns_per_op"] = median(cpu)
		// One traced run has no floor to take, so both sides are whole-phase
		// times: the traced run's over the untraced repeats' median.
		t.Layers["harness.trace_overhead_share"] = t.E2E["host_ns_per_op"]/median(wr.EndToEnd["host_ns_per_op"].Repeats) - 1
		for _, m := range traced {
			wr.PerLayer[m.Name] = value{Value: t.Layers[m.Name], Unit: m.Unit}
		}
	}
	return wr, errors.Join(errs...)
}

// driverLine is the one JSON object the benchmark contract asks for.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	seed := flag.Int64("seed", 7, "workload seed: the same seed gives the same inputs")
	name := flag.String("workload", "", "run only this workload and print one JSON object as the last line")
	flag.Float64("seconds", 0, "accepted and ignored: a run is a fixed number of repeats of fixed op counts (15 to 23 s measured), so that virtual time and the host estimate do not depend on the host's speed")
	trace := flag.String("trace", "0", "with -workload, 0: no traced run, 1: one traced run, for the per-layer metrics; any other value: write the traced runs' spans to this file")
	out := flag.String("out", "", "write the full report to this file")
	cmp := flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	flag.Parse()

	// The simulator runs one proc at a time: exactly one goroutine is
	// runnable at any instant. A second P adds nothing but cross-thread
	// hand-offs whose cost depends on where the OS put the threads (the
	// same phase then reads anywhere between 2.6 and 4.1 µs/op on a 2-core
	// box); one P makes the wall clock the CPU clock, garbage collection
	// included.
	runtime.GOMAXPROCS(1)

	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		worse, err := compare(os.Stdout, old, cur)
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workloadSpec{w}
	}
	tracing := *trace != "0" || *name == "" // the full suite always has its traced run
	n, probeRound := repeats, 300*time.Millisecond
	if *name != "" && tracing {
		// A driver's traced run reads only the per-layer metrics.
		n, probeRound = 1, 100*time.Millisecond
	}

	rep := &report{Seed: *seed, Scale: defaultScale, Go: runtime.Version()}
	var failures []error
	var spans *os.File
	if *trace != "0" && *trace != "1" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		spans = f
	}
	for _, w := range selected {
		// res, spans included, is dropped before the next workload starts:
		// host_live_mb must not depend on what ran before.
		res := measure(w, *seed, defaultScale, n, tracing)
		wr, err := res.report()
		if err != nil {
			failures = append(failures, err)
		}
		wr.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, wr)
		if spans != nil && res.tr != nil {
			if err := res.tr.write(spans); err != nil {
				failures = append(failures, err)
			}
		}
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			failures = append(failures, err)
		}
	}
	if tracing {
		rep.Probes = map[string]value{}
		vals := runProbes(probeRound)
		for _, m := range probed {
			rep.Probes[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
		}
		printProbes(os.Stdout, rep.Probes)
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			failures = append(failures, err)
		}
	}
	err := errors.Join(failures...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}

	if *name != "" {
		wr := rep.Workloads[0]
		line := driverLine{Correct: err == nil, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
		if tracing {
			for k, v := range wr.PerLayer {
				line.Metrics[k] = v
			}
			for k, v := range rep.Probes {
				line.Metrics[k] = v
			}
		} else {
			for k, v := range wr.EndToEnd {
				if k != "error_share" { // always 0; the line's "failed" carries it
					line.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
				}
			}
		}
		blob, jerr := json.Marshal(line)
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Println(string(blob))
	}
	if err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
