package injector

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"healers/internal/clib"
	"healers/internal/obs"
)

// -update rewrites the committed golden vector file from a sequential
// campaign. The file is the determinism oracle: parallel runs, cached
// runs, and future sessions must all reproduce it byte for byte.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenVectorsFile = "golden_vectors.txt"

func readGolden() ([]byte, error) {
	return os.ReadFile(filepath.Join("testdata", goldenVectorsFile))
}

func readGoldenVectors(t *testing.T) string {
	t.Helper()
	data, err := readGolden()
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestSequentialVectorsMatchGolden -update): %v", err)
	}
	return string(data)
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(4); got != 4 {
		t.Errorf("ResolveWorkers(4) = %d", got)
	}
	if got := ResolveWorkers(-3); got != 1 {
		t.Errorf("ResolveWorkers(-3) = %d, want 1", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want >= 1", got)
	}
}

// TestSequentialVectorsMatchGolden pins the whole campaign output — one
// line per function with its error classification, error value, errnos,
// and robust type vector — against a committed golden file.
func TestSequentialVectorsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	_, campaign := runFullCampaign(t)
	sig := campaign.VectorSignature()

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", goldenVectorsFile), []byte(sig), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to testdata/%s", len(sig), goldenVectorsFile)
		return
	}
	if golden := readGoldenVectors(t); sig != golden {
		t.Errorf("sequential campaign diverged from golden vectors:\n%s",
			diffLines(golden, sig))
	}
}

// TestParallelVectorsMatchGolden is the race-audit test: the full
// 86-function campaign sharded across 8 workers (each with a private
// library instance) must reproduce the sequential golden file byte for
// byte. Run under -race (make race / CI) this doubles as the audit
// that per-function campaigns share no mutable state.
func TestParallelVectorsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	golden := readGoldenVectors(t)

	lib, ext := freshExtraction(t)
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.LibFactory = clib.New
	cfg.Metrics = obs.NewRegistry()
	campaign, err := New(lib, cfg).InjectAll(ext, lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	if sig := campaign.VectorSignature(); sig != golden {
		t.Errorf("parallel campaign diverged from sequential golden vectors:\n%s",
			diffLines(golden, sig))
	}

	// The worker instrumentation must account for every function exactly
	// once, and the gauge must reflect the pool size actually used.
	snap := cfg.Metrics.Snapshot()
	if got := snap.Gauges["healers_injector_workers"]; got != 8 {
		t.Errorf("healers_injector_workers = %d, want 8", got)
	}
	var perWorker int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "healers_injector_worker_functions_total{") {
			perWorker += v
		}
	}
	if want := int64(len(campaign.Order)); perWorker != want {
		t.Errorf("sum of per-worker function counters = %d, want %d", perWorker, want)
	}
}

// TestResultCacheSkipsRepeatInjection re-runs a campaign with a shared
// ResultCache: the second run must be all cache hits, run no
// experiments, fork nothing, and still produce the identical signature.
func TestResultCacheSkipsRepeatInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaigns")
	}
	lib, ext := freshExtraction(t)
	names := []string{"strcpy", "memcpy", "fopen", "asctime", "qsort"}

	cache := NewResultCache()
	// delta returns the hits and misses the cache counted since prev.
	delta := func(prev CacheStats) (hits, misses int64) {
		st := cache.Stats()
		return st.Hits - prev.Hits, st.Misses - prev.Misses
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Cache = cache
	cfg.Metrics = reg
	c1, err := New(lib, cfg).InjectAll(ext, names)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := delta(CacheStats{})
	if hits != 0 {
		t.Errorf("cold run reported %d cache hits", hits)
	}
	if misses != int64(len(names)) {
		t.Errorf("cold run misses = %d, want %d", misses, len(names))
	}
	if cache.Len() != len(names) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), len(names))
	}
	work := []string{"healers_injector_experiments_total", "healers_injector_forks_total"}
	for _, name := range work {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("cold run: %s = 0", name)
		}
	}

	// Second run, same cache: all hits, byte-identical vectors. Run it
	// parallel to cover the cache's concurrent path too.
	prev := cache.Stats()
	reg2 := obs.NewRegistry()
	cfg2 := DefaultConfig()
	cfg2.Cache = cache
	cfg2.Metrics = reg2
	cfg2.Workers = 4
	cfg2.LibFactory = clib.New
	c2, err := New(lib, cfg2).InjectAll(ext, names)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := delta(prev); hits != int64(len(names)) || misses != 0 {
		t.Errorf("warm run: %d hits and %d misses, want %d hits and none", hits, misses, len(names))
	}
	// The warm speedup's cause, pinned deterministically: a hit injects
	// nothing and forks nothing.
	for _, name := range work {
		if n := reg2.Counter(name).Value(); n != 0 {
			t.Errorf("warm run: %s = %d, want 0", name, n)
		}
	}
	if s1, s2 := c1.VectorSignature(), c2.VectorSignature(); s1 != s2 {
		t.Errorf("cached campaign diverged:\n%s", diffLines(s1, s2))
	}

	// A different config fingerprint must not hit the same entries.
	prev = cache.Stats()
	cfg3 := DefaultConfig()
	cfg3.Cache = cache
	cfg3.Conservative = true
	if _, err := New(lib, cfg3).InjectAll(ext, names[:1]); err != nil {
		t.Fatal(err)
	}
	if hits, misses := delta(prev); hits != 0 || misses != 1 {
		t.Errorf("conservative run: %d hits and %d misses on the non-conservative cache, want 0 and 1", hits, misses)
	}
}

// TestParallelWorkerSpans checks the scheduler emits one span event per
// worker and that the spans jointly cover every function.
func TestParallelWorkerSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	lib, ext := freshExtraction(t)
	names := lib.CrashProne86()[:16]
	collect := obs.NewCollectSink(0)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Obs = obs.New(collect)
	if _, err := New(lib, cfg).InjectAll(ext, names); err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := 0
	for _, e := range collect.Events() {
		if e.Kind == obs.KindSpan && strings.HasPrefix(e.Phase, "inject-worker-") {
			seen++
			total += e.N
		}
	}
	if seen != 4 {
		t.Errorf("recorded %d worker spans, want 4", seen)
	}
	if total != len(names) {
		t.Errorf("worker spans cover %d functions, want %d", total, len(names))
	}
}

// diffLines renders a compact first-divergence diff of two multi-line
// strings for test failure messages.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(w), len(g))
}
