// Command bench is the repository's benchmark. It drives HEALERS the way
// its three kinds of user do — the hardener running a fault-injection
// campaign, the service client of `healers serve`, the tester running
// the Ballista strategy matrix, and the application running behind the
// wrapper (Table 2) — in four closed-loop workloads, checks every output
// against the committed goldens, and prints the metrics by name.
//
//	bash bench/run.sh -workload inject-cold -seed 1 -seconds 25 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes a Chrome trace.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run with any wrong output
// exits 1. bench/README.md holds the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload and layer loop reads: the inputs of one run.
type env struct {
	root    string // repository root, where the goldens live
	tmp     string // scratch directory inside the checkout, removed at exit
	healers string // healers binary for serve-cycle
	seed    int64
	dur     time.Duration
	// workers is the in-process parallelism, min(nproc, 2).
	workers int
	log     io.Writer
	// tr records spans in a traced run; nil (a no-op) otherwise.
	tr *tracer
	// children tracks the serve children this run started.
	children *children
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "how long the closed loop is measured")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace"), "directory a traced run writes its Chrome trace to")
	bin := fs.String("healers", "", "healers binary serve-cycle starts (built from source when empty)")
	sets := fs.Int("sets", 0, "stability mode: run each workload this many times in fresh processes and print the spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *sets > 0 {
		if err := runSets(*sets, *name, *seed, *seconds, *bin, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	e := &env{
		root:     root,
		tmp:      tmp,
		healers:  *bin,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		workers:  min(runtime.NumCPU(), 2),
		log:      stdout,
		children: newChildren(),
	}
	if w.name == "serve-cycle" || *trace == 1 {
		if e.healers, err = ensureHealers(root, e.healers); err != nil {
			return fail(err)
		}
	}
	// Every serve child is stopped on the way out, whatever path got here.
	defer e.children.stopAll()

	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d workers=%d\n",
		w.name, e.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), e.workers)
	var res *result
	if *trace == 1 {
		res, err = measureTraced(e, w, filepath.Join(*traceOut, w.name+".json"))
	} else {
		res, err = measure(e, w)
	}
	if err != nil {
		return fail(err)
	}
	for _, m := range res.details {
		fmt.Fprintf(stdout, "detail %-28s %14.4f %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-28s %14.4f %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
	}
	failedShare := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(stdout, "failed_share = %.4f (%d wrong of %d ops)\n", failedShare, res.failed, res.attempted)
	if err := printJSON(stdout, res); err != nil {
		return fail(err)
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported number with the sample count behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	// Detail marks a number printed for people but left out of the
	// result line, which carries exactly the catalogue in BENCHMARK.json.
	Detail bool
}

// result is the outcome of one run: the contract metrics, extra detail
// lines for people, and the op counts of the correctness oracle.
type result struct {
	metrics   []metric
	details   []metric
	attempted int
	failed    int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line the driver parses: the last line of
// standard output.
func printJSON(w io.Writer, r *result) error {
	ms := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// findRoot walks up from the working directory to the repository root,
// recognised by the committed golden vectors.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenVectorsPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root above the working directory (looked for %s)", goldenVectorsPath)
		}
		dir = parent
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
