package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed loop: each caller waits for its reply before
// it sends the next request.
type workload interface {
	// setup builds everything the loop needs. It is timed as setup_s and
	// may run several times; the last setup's state is the one iterated.
	setup(e *env) error
	// iteration runs one closed-loop iteration, recording latencies,
	// work and the correctness of every output into rec. Layer calls are
	// traced as children of parent. An error aborts the run: it means the
	// harness itself broke, not that the program answered wrongly.
	iteration(e *env, it int, parent spanID, rec *recorder) error
}

type workloadDef struct {
	name string
	make func() workload
	// aliases names the generic end-to-end metrics, and the details
	// behind them, as this workload's user knows them. A source
	// "op_ms_pNN" is that percentile of the op latencies.
	aliases [][2]string
}

// workloads is the catalogue; bench/README.md says why each was chosen.
var workloads = []workloadDef{
	{"inject-cold", func() workload { return &injectCold{} }, [][2]string{
		{"campaign_ms_p50", "op_ms_p50"}, {"campaign_ms_p95", "op_ms_p95"}, {"experiments_per_s", "work_per_s"},
	}},
	{"serve-cycle", func() workload { return &serveCycle{clients: 2, opsPerClient: 100} }, [][2]string{
		{"serve_cold_ms_p50", "serve.cold_ms"}, {"serve_op_ms_p50", "op_ms_p50"}, {"serve_op_ms_p99", "op_ms_p99"},
		{"serve_restart_ms_p50", "serve.restart_ms"}, {"serve_ops_per_s", "work_per_s"},
	}},
	{"ballista-matrix", func() workload { return &ballistaMatrix{} }, [][2]string{
		{"ballista_iteration_ms_p50", "op_ms_p50"}, {"ballista_tests_per_s", "work_per_s"},
	}},
	{"apps-table2", func() workload { return &appsTable2{} }, [][2]string{
		{"wrapped_round_ms_p50", "op_ms_p50"}, {"wrapped_calls_per_s", "work_per_s"},
	}},
}

// setupReps is how many times setup runs per run; setup_s is their
// median, which keeps a single slow start from moving it.
const setupReps = 9

// recorder collects what the iterations of one run observed. Serve
// clients record from two goroutines, so every method locks.
type recorder struct {
	mu sync.Mutex
	// opMS holds the latency of every op the workload's user waits for.
	opMS []float64
	// work counts units of useful work done in workSec seconds of wall.
	work, workSec float64
	// attempted and failed count checked outputs; failed ones were wrong
	// or never arrived.
	attempted, failed int
	// rssMB holds peak resident sizes of child programs under test;
	// empty when the program under test is this process.
	rssMB []float64
	// samples holds named per-layer observations.
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64)}
}

func (r *recorder) latency(d time.Duration) {
	r.mu.Lock()
	r.opMS = append(r.opMS, ms(d))
	r.mu.Unlock()
}

// outcome counts one checked op; ok is false when its output was wrong.
func (r *recorder) outcome(ok bool) {
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.mu.Unlock()
}

func (r *recorder) addWork(units float64, d time.Duration) {
	r.mu.Lock()
	r.work += units
	r.workSec += d.Seconds()
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) childRSS(mb float64) {
	r.mu.Lock()
	r.rssMB = append(r.rssMB, mb)
	r.mu.Unlock()
}

// timedSetup runs setup setupReps times and returns the median seconds.
func timedSetup(e *env, w workload) (metric, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(e); err != nil {
			return metric{}, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return metric{Name: "setup_s", Unit: "s", Value: median(secs), N: len(secs)}, nil
}

// measure is the untraced run: set up, then iterate the closed loop for
// e.dur and report the end-to-end metrics.
func measure(e *env, def workloadDef) (*result, error) {
	w := def.make()
	setup, err := timedSetup(e, w)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	cal := newCalibrator()
	sampler := startRSSSampler()
	var selfRSS []float64
	start := time.Now()
	for it := 0; it == 0 || time.Since(start) < e.dur; it++ {
		sampler.take()
		t0 := time.Now()
		if err := w.iteration(e, it, 0, rec); err != nil {
			sampler.stop()
			return nil, err
		}
		iter := time.Since(t0)
		selfRSS = append(selfRSS, sampler.take())
		cal.after(iter)
	}
	sampler.stop()
	res := &result{attempted: rec.attempted, failed: rec.failed}
	// The program under test is this process, unless the workload drives
	// children and recorded their peaks.
	if len(rec.rssMB) > 0 {
		selfRSS = rec.rssMB
	}
	opMS := quantile(rec.opMS, 0.50)
	workPerS := rec.work / math.Max(rec.workSec, 1e-9)
	calMS := median(cal.ms)
	res.metrics = []metric{
		setup,
		{Name: "peak_rss_mb", Unit: "MiB", Value: median(selfRSS), N: len(selfRSS)},
		{Name: "op_cal_p50", Unit: "cal", Value: opMS / calMS, N: len(rec.opMS)},
		{Name: "work_per_cal", Unit: "1/cal", Value: workPerS * calMS / 1000, N: len(rec.opMS)},
	}
	res.details = []metric{
		{Name: "op_ms_p50", Unit: "ms", Value: opMS, N: len(rec.opMS)},
		{Name: "work_per_s", Unit: "1/s", Value: workPerS, N: len(rec.opMS)},
		{Name: "calibration_ms", Unit: "ms", Value: calMS, N: len(cal.ms)},
	}
	if d, ok := w.(interface{ details(*recorder) []metric }); ok {
		res.details = append(res.details, d.details(rec)...)
	}
	for _, name := range sortedKeys(rec.samples) {
		xs := rec.samples[name]
		res.details = append(res.details, metric{Name: name, Unit: unitOf(name), Value: median(xs), N: len(xs)})
	}
	tailMS, tailName := tail(rec.opMS)
	res.details = append(res.details, metric{Name: "tail." + tailName, Unit: "ms", Value: tailMS, N: len(rec.opMS)})
	for _, a := range def.aliases {
		m, ok := lookupMetric(res, rec, a[1])
		if !ok {
			return nil, fmt.Errorf("%s: alias %s has no source %s", def.name, a[0], a[1])
		}
		m.Name = a[0]
		res.details = append(res.details, m)
	}
	return res, nil
}

// lookupMetric finds a reported metric or detail by name, or computes a
// percentile "op_ms_pNN" of the op latencies.
func lookupMetric(res *result, rec *recorder, name string) (metric, bool) {
	for _, m := range append(res.metrics, res.details...) {
		if m.Name == name {
			return m, true
		}
	}
	if p, ok := strings.CutPrefix(name, "op_ms_p"); ok {
		if pct, err := strconv.Atoi(p); err == nil {
			return metric{Name: name, Unit: "ms", Value: quantile(rec.opMS, float64(pct)/100), N: len(rec.opMS)}, true
		}
	}
	return metric{}, false
}

// tail returns the highest percentile of the op latencies that still
// has at least ten samples beyond it, and that percentile's name.
func tail(xs []float64) (float64, string) {
	q, name := 0.5, "op_ms_p50"
	for _, c := range []struct {
		q    float64
		name string
	}{{0.9, "op_ms_p90"}, {0.95, "op_ms_p95"}, {0.99, "op_ms_p99"}, {0.999, "op_ms_p999"}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			q, name = c.q, c.name
		}
	}
	return quantile(xs, q), name
}

// measureTraced is the traced run. It runs the layer loops, then the
// workload's own loop with every other iteration traced, and reports
// the per-layer metrics. The untraced iterations give the tracing
// overhead; the traced ones give the Chrome trace and the self-time
// table.
func measureTraced(e *env, def workloadDef, tracePath string) (*result, error) {
	w := def.make()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rec := newRecorder()
	start := time.Now()
	layers, err := layerSuite(e, rec)
	if err != nil {
		return nil, err
	}
	loop := e.dur - time.Since(start)
	tr := newTracer()
	var plain, traced []float64
	loopStart := time.Now()
	for it := 0; it < 2 || time.Since(loopStart) < loop; it++ {
		var root spanID
		e.tr = nil
		if it%2 == 1 {
			e.tr = tr
			root = tr.start("iteration", 0)
		}
		t0 := time.Now()
		err := w.iteration(e, it, root, rec)
		d := time.Since(t0)
		tr.end(root)
		e.tr = nil
		if err != nil {
			return nil, err
		}
		if it%2 == 1 {
			traced = append(traced, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
	}
	if err := tr.report(e.log, def.name); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath, def.name); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "trace: wrote %s\n", tracePath)
	// The op-latency tail varies too much between runs to bound, so it is
	// a per-layer number here rather than an end-to-end one.
	tailMS, tailName := tail(rec.opMS)
	fmt.Fprintf(e.log, "tail.op_ms is %s\n", tailName)
	layers = append(layers,
		metric{Name: "trace.overhead_pct", Unit: "%", Value: 100 * (median(traced)/median(plain) - 1), N: len(traced) + len(plain)},
		metric{Name: "tail.op_ms", Unit: "ms", Value: tailMS, N: len(rec.opMS)},
	)
	res := &result{attempted: rec.attempted, failed: rec.failed}
	for _, m := range layers {
		if m.Detail {
			res.details = append(res.details, m)
		} else {
			res.metrics = append(res.metrics, m)
		}
	}
	return res, nil
}

// rssSampler samples this process's resident set every rssEvery and
// keeps the highest value since the last take. The process's own VmHWM
// is no use here: it cannot be reset without writing to /proc, and over
// a run it holds the single worst moment of the garbage collector's
// pacing, which moves by half between runs. The median of per-iteration
// peaks does not.
type rssSampler struct {
	peak atomic.Int64 // resident pages
	quit chan struct{}
	done chan struct{}
}

const rssEvery = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	pages := residentPages()
	for {
		old := s.peak.Load()
		if pages <= old || s.peak.CompareAndSwap(old, pages) {
			return
		}
	}
}

// take returns the peak in MiB since the last take and starts a new
// window at the current size.
func (s *rssSampler) take() float64 {
	s.sample()
	return float64(s.peak.Swap(residentPages())*int64(os.Getpagesize())) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// residentPages reads this process's resident set from /proc, in pages
// (0 if it cannot be read).
func residentPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64)
	return n
}

// peakRSS reads VmHWM of a live process from /proc, in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// quantile is the linear-interpolation quantile of xs (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unitOf derives a sample's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}
