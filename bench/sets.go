package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the benchmark's description at the repository root.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runSets is the stability mode: every workload (or only the named one)
// runs sets times, each in a fresh process at the same seed, and each
// end-to-end metric's spread across the sets — (max-min)/median — is
// printed against its bound as a Markdown table.
func runSets(sets int, only string, seed int64, seconds float64, bin string, out io.Writer) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if bin, err = ensureHealers(root, bin); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if only != "" {
		if _, ok := workloadByName(only); !ok {
			return fmt.Errorf("unknown -workload %q", only)
		}
		names = []string{only}
	}
	header := "| workload | metric |"
	rule := "|---|---|"
	for s := 1; s <= sets; s++ {
		header += fmt.Sprintf(" set %d |", s)
		rule += "---:|"
	}
	fmt.Fprintf(out, "%s spread | bound | within |\n%s---:|---:|---|\n", header, rule)
	for _, w := range names {
		runs := make([]map[string]float64, sets)
		for s := range runs {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-healers", bin)
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w, s+1, err)
			}
			if runs[s], err = lastResult(stdout); err != nil {
				return fmt.Errorf("%s set %d: %w", w, s+1, err)
			}
		}
		for _, m := range spec.EndToEnd {
			var vals []float64
			row := fmt.Sprintf("| %s | %s |", w, m.Name)
			for _, r := range runs {
				vals = append(vals, r[m.Name])
				row += fmt.Sprintf(" %.4g |", r[m.Name])
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (hi - lo) / median(vals)
			within := "yes"
			if spread > m.Bound {
				within = "**no**"
			}
			fmt.Fprintf(out, "%s %.3f | %.2f | %s |\n", row, spread, m.Bound, within)
		}
	}
	return nil
}

// lastResult parses the metrics of the JSON result line a run ends with.
func lastResult(stdout []byte) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported wrong outputs")
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}
