package ballista

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkBallistaMatrix runs the full suite under the strategy
// matrix's four configurations, as the ballista-matrix benchmark
// workload does, with one worker and with two.
func BenchmarkBallistaMatrix(b *testing.B) {
	f := setup(b)
	template := NewTemplate()
	configs := f.matrixConfigs()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, c := range configs {
					f.suite.RunWith(c.name, template, c.factory, RunOptions{Workers: workers})
				}
			}
		})
	}
}

// scalingRounds is the number of alternating sequential and two-worker
// runs BenchmarkBallistaScaling takes the best of. One run is ~40 ms,
// so a pause of the machine's other tenants or a collection can double
// either.
const scalingRounds = 7

// scalingTarget is the two-worker wall, as a share of the sequential
// wall, that the worker pool aims at on two cores.
const scalingTarget = 0.70

// BenchmarkBallistaScaling measures the worker pool: with at least two
// schedulable CPUs, it runs the full suite unwrapped and in heal mode
// sequentially and with two workers, takes the best of scalingRounds
// alternating runs of each, and reports the ratio of the two walls. A
// per-test write to a line both workers share (a channel operation, a
// locked free list, a shared counter) is what moves the ratio towards
// 1. It reports and does not gate: on a shared 2-vCPU machine the
// ratio read 0.60–1.04 (median 0.75) over ten processes, so a ceiling
// of scalingTarget would fail working trees; ROADMAP.md tracks the
// gate.
func BenchmarkBallistaScaling(b *testing.B) {
	if procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); procs < 2 {
		b.Skipf("parallel speedup needs 2 effective procs, have %d", procs)
	}
	f := setup(b)
	template := NewTemplate()
	var configs []matrixConfig
	for _, c := range f.matrixConfigs() {
		if c.name == "unwrapped" || c.name == "mode-heal" {
			configs = append(configs, c)
		}
	}
	wallMS := func(workers int) float64 {
		// Each run starts on a fresh heap cycle, so a collection left
		// running by the one before does not land on it.
		runtime.GC()
		start := time.Now()
		for _, c := range configs {
			f.suite.RunWith(c.name, template, c.factory, RunOptions{Workers: workers})
		}
		return float64(time.Since(start).Microseconds()) / 1e3
	}
	for i := 0; i < b.N; i++ {
		seq, par := wallMS(1), wallMS(2)
		for r := 1; r < scalingRounds; r++ {
			seq, par = min(seq, wallMS(1)), min(par, wallMS(2))
		}
		ratio := par / seq
		b.ReportMetric(par, "par2-ms")
		b.ReportMetric(seq, "seq-ms")
		b.ReportMetric(ratio, "ratio")
		if ratio > scalingTarget {
			b.Logf("par2-ms %.1f is %.2f× seq-ms %.1f, above the %.2f× target", par, ratio, seq, scalingTarget)
		}
	}
}
