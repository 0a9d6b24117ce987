package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload for a second at seed 1 and requires a
// clean result line carrying exactly the end-to-end metrics of
// BENCHMARK.json, each non-zero; then one traced run must carry exactly
// its per-layer metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := ensureHealers(root, "")
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer []string
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}

	runOnce := func(t *testing.T, workload, trace string, want []string, nonZero bool) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", workload, "-seed", "1", "-seconds", "1", "-trace", trace,
			"-healers", bin, "-trace-out", t.TempDir()}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool                  `json:"correct"`
			Attempted int                   `json:"attempted"`
			Failed    int                   `json:"failed"`
			Metrics   map[string]jsonMetric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("exit %d, last line not a result: %v\n%s%s", code, err, stdout.String(), stderr.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("exit %d, correct=%t, %d of %d ops wrong\n%s%s", code, res.Correct, res.Failed, res.Attempted, stdout.String(), stderr.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
		}
		for _, name := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("metric %s missing from the result line", name)
			case !strings.Contains(stdout.String(), "metric "+name+" "):
				t.Errorf("metric %s not printed by name", name)
			case nonZero && m.Value == 0:
				t.Errorf("metric %s is 0", name)
			}
		}
	}
	// The runs share nothing but the healers binary, so they overlap to
	// keep the test short.
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			runOnce(t, w, "0", endToEnd, true)
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		runOnce(t, "inject-cold", "1", perLayer, false)
	})
}
