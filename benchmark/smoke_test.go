package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ditto/internal/workload"
)

// TestSmoke runs all four workloads at 1/100 scale, twice, traced, and
// the probes at a token length. It checks what must hold at any scale:
// every named metric is there and finite, virtual-time metrics and counts
// repeat exactly, counts reconcile, and the workloads that bypass a
// mechanism show exactly nothing for it. It is also the compile-time
// guard on the API surface README.md lists.
func TestSmoke(t *testing.T) {
	const seed, scale = 7, 0.01
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var reports [2]*workloadReport
			for i := range reports {
				res := measure(w, seed, scale, 2, true)
				wr, err := res.report()
				if err != nil {
					t.Fatal(err)
				}
				reports[i] = wr
				reconcile(t, res)
			}
			a, b := reports[0], reports[1]
			for _, m := range endToEnd {
				v, ok := a.EndToEnd[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v, present %v", m.Name, v.Value, ok)
				}
				if exact(m.Name) && v.Value != b.EndToEnd[m.Name].Value {
					t.Errorf("%s differs between two runs: %v, %v", m.Name, v.Value, b.EndToEnd[m.Name].Value)
				}
			}
			for _, m := range traced {
				v, ok := a.PerLayer[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v, present %v", m.Name, v.Value, ok)
				}
				if !strings.HasPrefix(m.Name, "harness.") && v.Value != b.PerLayer[m.Name].Value {
					t.Errorf("%s differs between two runs: %v, %v", m.Name, v.Value, b.PerLayer[m.Name].Value)
				}
			}

			// The floor over slices can be no slower than the fastest repeat.
			if h := a.EndToEnd["host_ns_per_op"]; len(h.Repeats) != 2 || h.Value <= 0 || h.Value > slices.Min(h.Repeats) {
				t.Errorf("host_ns_per_op = %v from repeats %v", h.Value, h.Repeats)
			}

			zero := []string{"error_share"}
			if w.name == "point-read" || w.name == "batch-mixed" {
				zero = append(zero, "core.evictions_per_kop")
			}
			if w.name != "hotspot-scaleout" {
				zero = append(zero, "core.reshard_ms", "core.migrated_keys", "hotset.promotions_per_kop")
			}
			if w.name == "adapt-churn" {
				zero = append(zero, "core.spec_hit_rate", "core.spec_fallback_rate", "rdma.doorbells_per_op")
			}
			for _, name := range zero {
				v, ok := a.PerLayer[name]
				if !ok {
					v = a.EndToEnd[name]
				}
				if v.Value != 0 {
					t.Errorf("%s = %v on %s, want exactly 0", name, v.Value, w.name)
				}
			}
		})
	}

	if got, want := keyTable(300)[255], workload.KeyBytes(255); !bytes.Equal(got, want) {
		t.Errorf("keyTable renders key 255 as %q, workload.KeyBytes as %q", got, want)
	}

	t.Run("probes", func(t *testing.T) {
		vals := runProbes(2 * time.Millisecond)
		for _, m := range probed {
			v, ok := vals[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s = %v, present %v", m.Name, v, ok)
			}
		}
	})
}

// reconcile checks the counts of a traced run against each other.
func reconcile(t *testing.T, res *result) {
	t.Helper()
	o := res.traced
	var sum int64
	spans := map[uint8]int64{}
	for _, s := range res.tr.spans {
		spans[s.name]++
	}
	for k, n := range o.KindCalls {
		sum += n
		if got := spans[sCall+uint8(k)]; got != n {
			t.Errorf("%d core.%s spans, %d calls", got, kindNames[k], n)
		}
	}
	if sum != o.Calls || o.Calls != res.repeats[0].Calls {
		t.Errorf("calls by kind add up to %d, calls = %d traced, %d untraced", sum, o.Calls, res.repeats[0].Calls)
	}
	if got := math.Round(o.Layers["rdma.reads_per_op"] * float64(o.Ops)); got != float64(o.NodeReads) {
		t.Errorf("rdma.reads_per_op × ops = %v, nodes counted %d READs", got, o.NodeReads)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the catalog the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.Name || got[i].Unit != m.Unit || got[i].Better != m.Better || got[i].Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalog %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd[:len(endToEnd)-1]) // error_share is the line's "failed"
	same("per_layer", spec.PerLayer, slices.Concat(traced, probed))
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}

// TestCompare pins -compare's verdicts, and that it refuses two reports
// of different inputs instead of judging them.
func TestCompare(t *testing.T) {
	mk := func(seed int64, ns float64, repeats ...float64) *report {
		e2e := map[string]value{}
		for _, m := range endToEnd {
			e2e[m.Name] = value{Value: 1, Unit: m.Unit}
		}
		e2e["error_share"] = value{}
		e2e["host_ns_per_op"] = value{Value: ns, Unit: "ns/op", Repeats: repeats}
		return &report{Seed: seed, Scale: defaultScale, Workloads: []*workloadReport{{Name: "w", EndToEnd: e2e}}}
	}
	for _, c := range []struct {
		cur     *report
		verdict string
		worse   int
	}{
		{mk(7, 1100, 1100, 1150), "same", 0},
		{mk(7, 1300, 1300, 1350), "worse", 1},
		{mk(7, 700, 700, 720), "better", 0},
		{mk(7, 1300, 1300, 1600), "unresolved", 0},
	} {
		var out bytes.Buffer
		worse, err := compare(&out, mk(7, 1000, 1000, 1050), c.cur)
		line := strings.Split(out.String(), "\n")[4] // endToEnd[4] is host_ns_per_op
		if err != nil || worse != c.worse || !strings.HasSuffix(line, c.verdict) {
			t.Errorf("want %s (%d worse), got %d worse, err %v: %s", c.verdict, c.worse, worse, err, line)
		}
	}
	if _, err := compare(&bytes.Buffer{}, mk(7, 1000), mk(11, 1000)); err == nil {
		t.Error("compare judged reports of different seeds")
	}
}
