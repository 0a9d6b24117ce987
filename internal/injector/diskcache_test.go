package injector

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"healers/internal/obs"
)

// cacheTestNames is a small prototype set spanning the declaration
// shapes the disk format must carry: dependent sizes, NULL-tolerant
// arrays, consistent and not-found error classes, and a zero-size seed
// block.
var cacheTestNames = []string{"strcpy", "memcpy", "fopen", "asctime", "qsort"}

// runCampaignWithCache runs one campaign over names with the given
// cache and returns its signature plus the registry used.
func runCampaignWithCache(t *testing.T, cache *ResultCache, names []string) (string, *obs.Registry) {
	t.Helper()
	lib, ext := freshExtraction(t)
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Cache = cache
	cfg.Metrics = reg
	c, err := New(lib, cfg).InjectAll(ext, names)
	if err != nil {
		t.Fatal(err)
	}
	return c.VectorSignature(), reg
}

// TestDiskCacheWarmRestart is the persistence contract: a campaign run
// against a fresh disk cache, closed, and reopened must serve the same
// campaign entirely from disk hits with a byte-identical signature.
func TestDiskCacheWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	coldSig, _ := runCampaignWithCache(t, dc, cacheTestNames)
	st := dc.Stats()
	if st.Misses != int64(len(cacheTestNames)) || st.Hits != 0 {
		t.Errorf("cold stats = %+v, want %d misses and 0 hits", st, len(cacheTestNames))
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if st := dc2.Stats(); st.Loaded != int64(len(cacheTestNames)) || st.Dropped != 0 {
		t.Fatalf("reopen stats = %+v, want %d loaded and 0 dropped", st, len(cacheTestNames))
	}
	warmSig, _ := runCampaignWithCache(t, dc2, cacheTestNames)
	st = dc2.Stats()
	if st.Hits != int64(len(cacheTestNames)) || st.Misses != 0 {
		t.Errorf("warm stats = %+v, want all hits", st)
	}
	if warmSig != coldSig {
		t.Errorf("warm restart diverged:\n%s", diffLines(coldSig, warmSig))
	}
}

// TestDiskCacheFullCampaignWarmRestart runs the whole 86-function
// campaign cold into a disk cache, restarts, and requires the warm run
// to come purely from disk hits while still matching the committed
// golden vectors byte for byte.
func TestDiskCacheFullCampaignWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	golden := readGoldenVectors(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	lib, ext := freshExtraction(t)
	cfg := DefaultConfig()
	cfg.Cache = dc
	if _, err := New(lib, cfg).InjectAll(ext, lib.CrashProne86()); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	lib2, ext2 := freshExtraction(t)
	cfg2 := DefaultConfig()
	cfg2.Cache = dc2
	c, err := New(lib2, cfg2).InjectAll(ext2, lib2.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	if sig := c.VectorSignature(); sig != golden {
		t.Errorf("warm campaign diverged from golden vectors:\n%s", diffLines(golden, sig))
	}
	st := dc2.Stats()
	if st.Misses != 0 {
		t.Errorf("warm 86-function campaign computed %d functions, want 0 (all from disk)", st.Misses)
	}
}

// TestDiskCacheCorruptionTolerance damages a persisted cache three
// ways — a truncated line, a checksum mismatch, a version skew — plus
// one garbage line, and requires the load to drop exactly the damaged
// entries and the next campaign to recompute them into the same
// signature. Corrupt entries must never crash the load or leak a
// stale-wrong vector.
func TestDiskCacheCorruptionTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	coldSig, _ := runCampaignWithCache(t, dc, cacheTestNames)
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(cacheTestNames) {
		t.Fatalf("cache holds %d lines, want %d", len(lines), len(cacheTestNames))
	}

	// Truncate the first entry mid-JSON.
	lines[0] = lines[0][:len(lines[0])/2]
	// Corrupt the second entry's checksum so the payload no longer
	// matches it.
	sumAt := strings.Index(lines[1], `"sum":"`)
	if sumAt < 0 {
		t.Fatalf("no sum field in %q", lines[1])
	}
	b := []byte(lines[1])
	i := sumAt + len(`"sum":"`)
	if b[i] == '0' {
		b[i] = '1'
	} else {
		b[i] = '0'
	}
	lines[1] = string(b)
	// Version-skew the third entry.
	vprefix := fmt.Sprintf(`{"v":%d,`, diskCacheVersion)
	if !strings.HasPrefix(lines[2], vprefix) {
		t.Fatalf("unexpected entry prefix: %q", lines[2])
	}
	lines[2] = `{"v":99,` + strings.TrimPrefix(lines[2], vprefix)
	// And append a line that is not JSON at all.
	lines = append(lines, "!!! not a cache entry !!!")

	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	st := dc2.Stats()
	if st.Loaded != 2 || st.Dropped != 4 {
		t.Fatalf("stats after corruption = %+v, want 2 loaded / 4 dropped", st)
	}

	warmSig, _ := runCampaignWithCache(t, dc2, cacheTestNames)
	if warmSig != coldSig {
		t.Errorf("recomputed campaign diverged:\n%s", diffLines(coldSig, warmSig))
	}
	st = dc2.Stats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Errorf("post-corruption stats = %+v, want 2 hits / 3 misses", st)
	}
}

// TestDiskCacheGarbageFile opens a cache over a file of random bytes:
// nothing loads, nothing crashes, and the cache still persists new
// results.
func TestDiskCacheGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(path, []byte("\x00\x01garbage\nmore garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := dc.Stats(); st.Loaded != 0 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 0 loaded / 2 dropped", st)
	}
	runCampaignWithCache(t, dc, cacheTestNames[:1])
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if st := dc2.Stats(); st.Loaded != 1 {
		t.Errorf("after garbage + one put, reopen loaded %d entries, want 1", st.Loaded)
	}
}

// TestCacheStatsConsistentUnderConcurrentReads hammers a shared cache
// from a campaign while snapshotting Stats concurrently (the serve
// layer's /metrics path): every snapshot must satisfy the cache
// invariants — entries never exceed misses+loaded, and counters are
// monotonic.
func TestCacheStatsConsistentUnderConcurrentReads(t *testing.T) {
	cache := NewResultCache()
	done := make(chan struct{})
	var prev CacheStats
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			st := cache.Stats()
			if st.Entries > st.Misses+st.Loaded {
				t.Errorf("inconsistent snapshot: %+v (entries ahead of misses)", st)
				return
			}
			if st.Hits < prev.Hits || st.Misses < prev.Misses {
				t.Errorf("counters went backwards: %+v after %+v", st, prev)
				return
			}
			prev = st
		}
	}()
	lib, ext := freshExtraction(t)
	cfg := DefaultConfig()
	cfg.Cache = cache
	cfg.Workers = 4
	if _, err := New(lib, cfg).InjectAll(ext, cacheTestNames); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestDiskCacheSingleWriterLock is the two-process guard: while one
// disk cache holds the file, a second open must fail with a clear
// error, and a close must release the lock for the next opener.
func TestDiskCacheSingleWriterLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskCache(path); err == nil {
		t.Fatal("second opener acquired a locked cache file")
	} else if !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second opener error %q does not name the lock", err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	dc2.Close()
}

// TestDiskCachePartialFinalLine exercises the two flavors of a
// mid-append kill: a fragment that lost payload bytes is counted as
// Truncated (not Dropped) and recomputed, while a complete entry that
// lost only its trailing newline still loads.
func TestDiskCachePartialFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	coldSig, _ := runCampaignWithCache(t, dc, cacheTestNames)
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flavor 1: the final entry lost only its newline — still a
	// complete, checksummed record, so it loads.
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := dc2.Stats(); st.Loaded != int64(len(cacheTestNames)) || st.Truncated != 0 || st.Dropped != 0 {
		t.Fatalf("newline-less tail: stats %+v, want %d loaded and nothing rejected", st, len(cacheTestNames))
	}
	dc2.Close()

	// Flavor 2: the final entry lost payload bytes too — a torn write,
	// counted as Truncated and recomputed into identical vectors.
	if err := os.WriteFile(path, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}
	dc3, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc3.Close()
	st := dc3.Stats()
	if st.Loaded != int64(len(cacheTestNames)-1) || st.Truncated != 1 || st.Dropped != 0 {
		t.Fatalf("torn tail: stats %+v, want %d loaded / 1 truncated / 0 dropped", st, len(cacheTestNames)-1)
	}
	warmSig, _ := runCampaignWithCache(t, dc3, cacheTestNames)
	if warmSig != coldSig {
		t.Errorf("recovery from torn tail diverged:\n%s", diffLines(coldSig, warmSig))
	}
	if st := dc3.Stats(); st.Misses != 1 || st.Hits != int64(len(cacheTestNames)-1) {
		t.Errorf("torn-tail recovery recomputed %d functions (hits %d), want exactly 1", st.Misses, st.Hits)
	}
	if err := dc3.Close(); err != nil {
		t.Fatal(err)
	}

	// Tail repair: the opener chopped the torn fragment before the
	// recomputed entry was appended, so the next generation loads a
	// fully clean file — nothing welded, nothing lost.
	dc4, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc4.Close()
	if st := dc4.Stats(); st.Loaded != int64(len(cacheTestNames)) || st.Truncated != 0 || st.Dropped != 0 {
		t.Fatalf("post-repair reopen: stats %+v, want %d loaded and a clean file", st, len(cacheTestNames))
	}
}

// TestDiskCacheSync covers the commit path: Sync on a live cache
// succeeds, and Sync after Close is a no-op rather than an error.
func TestDiskCacheSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	runCampaignWithCache(t, dc, cacheTestNames[:1])
	if err := dc.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
}

// TestDiskCachePoisonedAfterFailedWrite pins the write-error contract.
// The log's file is closed underneath the open cache, so the next
// append fails. That entry is still served from memory and counts as
// dropped, and the log is poisoned: even once a healthy handle is back
// in place, later puts stay memory-only (nothing is appended behind
// what may be a torn fragment), and Sync and Close report the failed
// write instead of acknowledging entries that never reached the file.
func TestDiskCachePoisonedAfterFailedWrite(t *testing.T) {
	lib, ext := freshExtraction(t)
	camp, err := New(lib, DefaultConfig()).InjectAll(ext, cacheTestNames[:1])
	if err != nil {
		t.Fatal(err)
	}
	r := camp.Results[cacheTestNames[0]]

	path := filepath.Join(t.TempDir(), "cache.jsonl")
	dc, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put("before", r)
	if err := dc.Sync(); err != nil {
		t.Fatalf("Sync before the failure: %v", err)
	}

	dc.log.f.Close()
	dc.Put("failed", r)
	if got, ok := dc.Get("failed"); !ok || got != r {
		t.Errorf("entry whose append failed is not served from memory: %v %t", got, ok)
	}
	if st := dc.Stats(); st.Dropped != 1 || st.Misses != 2 {
		t.Errorf("after the failed append: stats %+v, want 1 dropped of 2 misses", st)
	}

	healthy, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	dc.log.f = healthy
	dc.Put("after", r)
	if _, ok := dc.Get("after"); !ok {
		t.Error("put after the failure is not served from memory")
	}
	if st := dc.Stats(); st.Dropped != 2 {
		t.Errorf("put after the failure: %d dropped, want 2 (memory-only)", st.Dropped)
	}
	if err := dc.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Sync on a poisoned log = %v, want the failed write's error", err)
	}
	if err := dc.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close on a poisoned log = %v, want the failed write's error", err)
	}
	if err := dc.Sync(); err == nil {
		t.Error("Sync after closing a poisoned log succeeded")
	}

	dc2, err := OpenDiskCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if st := dc2.Stats(); st.Loaded != 1 || st.Dropped != 0 || st.Truncated != 0 {
		t.Errorf("reopen: stats %+v, want only the entry written before the failure", st)
	}
	for key, want := range map[string]bool{"before": true, "failed": false, "after": false} {
		if _, ok := dc2.Get(key); ok != want {
			t.Errorf("reopened cache has %q = %t, want %t", key, ok, want)
		}
	}
}
