package injector

import (
	"runtime"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
)

// benchCampaign runs one full 86-function campaign and returns its
// signature so the benchmark doubles as a determinism check — the
// parallel benchmark must produce the same bytes as the sequential one.
func benchCampaign(b *testing.B, workers int) string {
	sig, _ := timedCampaign(b, workersConfig(workers))
	return sig
}

// workersConfig is the default config sharded over workers goroutines,
// each with its own library instance.
func workersConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	if workers > 1 {
		cfg.LibFactory = clib.New
	}
	return cfg
}

// timedCampaign runs one full 86-function campaign under cfg and
// returns its signature with the wall time of the injection alone.
func timedCampaign(b *testing.B, cfg Config) (string, time.Duration) {
	b.Helper()
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	campaign, err := New(lib, cfg).InjectAll(ext, lib.CrashProne86())
	elapsed := time.Since(start)
	if err != nil {
		b.Fatal(err)
	}
	return campaign.VectorSignature(), elapsed
}

// BenchmarkCampaignSequential is the baseline: all 86 functions on one
// goroutine. Compare against BenchmarkCampaignParallel4 for the
// sharding speedup (EXPERIMENTS.md records measured numbers).
func BenchmarkCampaignSequential(b *testing.B) {
	var sig string
	for i := 0; i < b.N; i++ {
		sig = benchCampaign(b, 1)
	}
	benchSig(b, sig)
}

func BenchmarkCampaignParallel2(b *testing.B) {
	var sig string
	for i := 0; i < b.N; i++ {
		sig = benchCampaign(b, 2)
	}
	benchSig(b, sig)
}

func BenchmarkCampaignParallel4(b *testing.B) {
	var sig string
	for i := 0; i < b.N; i++ {
		sig = benchCampaign(b, 4)
	}
	benchSig(b, sig)
}

func BenchmarkCampaignParallel8(b *testing.B) {
	var sig string
	for i := 0; i < b.N; i++ {
		sig = benchCampaign(b, 8)
	}
	benchSig(b, sig)
}

// benchSig asserts the campaign the benchmark just timed produced the
// committed golden vectors — a benchmark that silently computed the
// wrong answer would be meaningless.
func benchSig(b *testing.B, sig string) {
	b.Helper()
	data, err := readGolden()
	if err != nil {
		b.Skipf("no golden file: %v", err)
	}
	if sig != string(data) {
		b.Fatal("benchmark campaign diverged from golden vectors")
	}
}

// BenchmarkCampaignScaling gates the sharded scheduler: with at least
// four schedulable CPUs, the 8-worker cold campaign's wall must stay at
// or below 0.50× the sequential one's, each the best of two runs.
func BenchmarkCampaignScaling(b *testing.B) {
	if procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); procs < 4 {
		b.Skipf("parallel speedup needs 4 effective procs, have %d", procs)
	}
	wallMS := func(workers int) float64 {
		sig, d := timedCampaign(b, workersConfig(workers))
		benchSig(b, sig)
		return float64(d.Microseconds()) / 1e3
	}
	for i := 0; i < b.N; i++ {
		par := min(wallMS(8), wallMS(8))
		seq := min(wallMS(1), wallMS(1))
		gateRatio(b, "par8-ms", par, "seq-ms", seq, 0.50)
	}
}

// gateRatio reports a measured pair of milliseconds and their ratio,
// and fails the benchmark when num/den exceeds ceiling.
func gateRatio(b *testing.B, numUnit string, num float64, denUnit string, den, ceiling float64) {
	b.Helper()
	ratio := num / den
	b.ReportMetric(num, numUnit)
	b.ReportMetric(den, denUnit)
	b.ReportMetric(ratio, "ratio")
	if ratio > ceiling {
		b.Fatalf("%s %.1f is %.2f× %s %.1f, ceiling %.2f×", numUnit, num, ratio, denUnit, den, ceiling)
	}
}
