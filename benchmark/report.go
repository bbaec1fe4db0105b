package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
)

// spec is BENCHMARK.json: the single place metric names, units, directions
// and regression bounds are fixed. The program reads it at start, refuses
// to report a metric it does not list, and fails if one it lists is not
// produced.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root) and checks it against the workloads this program implements.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the program has %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i] {
			return nil, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, workloads[i])
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || m.Unit == "" || seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q: bad or repeated name, or no unit", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

// line is the one JSON object a run prints last.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine turns a result into the output line, keeping exactly the
// metrics the spec lists for this kind of run.
func resultLine(res result, want []metricSpec) (line, error) {
	out := line{Correct: len(res.Bad) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]measured{}}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s was not produced", res.Workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over nothing (no frame forwarded, no span recorded); JSON has no word for it
		}
		out.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("%s: no frame was offered", res.Workload)
	}
	return out, nil
}

// printResult writes a result for a reader: this run's metrics in spec
// order with units and bounds, then whatever else the run measured that the
// other run kind reports (an untraced run also has the delays and the CPU
// cost; only the traced run prints them in its line), then every violation.
func printResult(w io.Writer, res result, sp *spec, want []metricSpec, kind string) {
	fmt.Fprintf(w, "\n%s — %s: %d delay samples, %.0f %% of %d cores busy, %.1f %% stolen by the host\n",
		res.Workload, kind, res.Samples, 100*res.CPUShare, runtime.NumCPU(), 100*res.Stolen)
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better; may worsen %.1f %%)", m.Better, 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-10s%s\n", m.Name, res.Metrics[m.Name], m.Unit, bound)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if v, ok := res.Metrics[m.Name]; ok && !listed[m.Name] {
			fmt.Fprintf(w, "  %-30s %14.4f %-10s  (also measured; not in this run's line)\n", m.Name, v, m.Unit)
		}
	}
	for _, b := range res.Bad {
		fmt.Fprintf(w, "  INCORRECT: %s\n", b)
	}
	for _, b := range res.Short {
		fmt.Fprintf(w, "  SHORTFALL (in the metrics, not against correctness): %s\n", b)
	}
}

// environment describes where and with what constants the numbers were
// taken.
func environment(seed int64, seconds float64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       seed,
		"seconds":    seconds,
		"constants":  frozen,
	}
}
