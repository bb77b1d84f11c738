package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// value is one reported number. Repeats holds the untraced repeats it was
// taken from; -compare reads their spread.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Repeats []float64 `json:"repeats,omitempty"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name      string           `json:"name"`
	Ops       int64            `json:"ops"`   // measured key-ops per run
	Calls     int64            `json:"calls"` // measured cache calls per run: the samples behind vt_p50/p99
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// report is the -out file: one full run of the suite.
type report struct {
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Go        string            `json:"go"`
	Workloads []*workloadReport `json:"workloads"`
	Probes    map[string]value  `json:"probes,omitempty"`
}

func (wr *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d key-ops, %d calls, %d of %d calls failed\n", wr.Name, wr.Ops, wr.Calls, wr.Failed, wr.Attempted)
	for _, m := range endToEnd {
		v := wr.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-10s", m.Name, v.Value, v.Unit)
		if len(v.Repeats) > 1 && slices.Min(v.Repeats) != slices.Max(v.Repeats) {
			fmt.Fprintf(w, " repeats %v", v.Repeats)
		}
		fmt.Fprintln(w)
	}
	for _, m := range traced {
		if v, ok := wr.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

func printProbes(w io.Writer, probes map[string]value) {
	fmt.Fprintln(w, "== host probes")
	for _, m := range probed {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, probes[m.Name].Value, m.Unit)
	}
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func (rep *report) write(path string) error {
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// spread is the distance between a metric's furthest repeats.
func spread(v value) float64 {
	if len(v.Repeats) < 2 {
		return 0
	}
	return slices.Max(v.Repeats) - slices.Min(v.Repeats)
}

// compare applies every end-to-end metric's bound to each workload of two
// reports and prints better | same | worse | unresolved per pair; it
// returns the number of pairs that got worse. A host metric whose repeats
// are further apart than its bound, in either report, is unresolved: the
// runs cannot tell. It then lists every virtual-time or count metric that
// is not byte-identical, which two runs of one commit must never show.
func compare(w io.Writer, old, cur *report) (worse int, err error) {
	if old.Seed != cur.Seed || old.Scale != cur.Scale {
		return 0, fmt.Errorf("the reports are of different inputs: seed %d scale %g against seed %d scale %g",
			old.Seed, old.Scale, cur.Seed, cur.Scale)
	}
	var differ []string
	for _, ow := range old.Workloads {
		i := slices.IndexFunc(cur.Workloads, func(c *workloadReport) bool { return c.Name == ow.Name })
		if i < 0 {
			fmt.Fprintf(w, "%-17s missing from the new report: worse\n", ow.Name)
			worse++
			continue
		}
		cw := cur.Workloads[i]
		for _, m := range endToEnd {
			o, c := ow.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			bound := m.Bound * math.Abs(o.Value)
			delta := m.worse(o.Value, c.Value)
			verdict := "same"
			switch {
			case math.IsNaN(delta):
				verdict = "worse"
			case !exact(m.Name) && max(spread(o), spread(c)) > bound:
				verdict = "unresolved"
			case delta > bound:
				verdict = "worse"
			case delta < -bound:
				verdict = "better"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-17s %-24s %14.6g -> %14.6g %-10s bound %.4g  %s\n",
				ow.Name, m.Name, o.Value, c.Value, m.Unit, bound, verdict)
			if exact(m.Name) && o.Value != c.Value {
				differ = append(differ, ow.Name+" "+m.Name)
			}
		}
		for _, m := range traced {
			if strings.HasPrefix(m.Name, "harness.") {
				continue
			}
			if o, c := ow.PerLayer[m.Name], cw.PerLayer[m.Name]; o.Value != c.Value {
				differ = append(differ, fmt.Sprintf("%s %s %g -> %g", ow.Name, m.Name, o.Value, c.Value))
			}
		}
	}
	fmt.Fprintf(w, "%d virtual-time and count metrics are not byte-identical\n", len(differ))
	for _, d := range differ {
		fmt.Fprintln(w, "  differs:", d)
	}
	return worse, nil
}
