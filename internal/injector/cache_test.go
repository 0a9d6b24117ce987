package injector

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
)

// TestFlightDoDedupes claims one key of a shared cache from many
// goroutines at once and requires exactly one computation (one lead),
// with every other caller joining it and sharing the leader's result
// pointer.
func TestFlightDoDedupes(t *testing.T) {
	cache := NewResultCache()
	var computes atomic.Int64
	want := &Result{Name: "one"}

	const callers = 16
	results := make([]*Result, callers)
	shared := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, fill, lead := cache.claim("k")
			switch {
			case r != nil:
				t.Errorf("caller %d hit a key no one had stored", i)
			case lead:
				computes.Add(1)
				// Hold the computation open until every other caller
				// has joined it.
				for cache.Stats().Joins < callers-1 {
					time.Sleep(time.Millisecond)
				}
				cache.Put("k", want)
				r = want
			default:
				var err error
				if r, err = fill.wait(); err != nil {
					t.Error(err)
				}
			}
			results[i], shared[i] = r, !lead
		}(i)
	}
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	leaders := 0
	for i := range results {
		if results[i] != want {
			t.Errorf("caller %d got %p, want the leader's result", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers report leading, want 1", leaders)
	}
	st := cache.Stats()
	if st.Leads != 1 || st.Joins != int64(callers-1) || st.InFlight != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 lead, %d joins, 0 in flight, 1 miss, 1 entry", st, callers-1)
	}
	if r, ok := cache.Get("k"); !ok || r != want {
		t.Errorf("Get after the fill = %p, %t; want the leader's result", r, ok)
	}
}

// TestFlightLeaderErrorPropagates requires a failed leader to deliver
// its error to every joined caller rather than letting them recompute,
// and the failure not to be cached: the next lookup leads afresh.
func TestFlightLeaderErrorPropagates(t *testing.T) {
	cache := NewResultCache()
	boom := errors.New("boom")
	var computes atomic.Int64

	_, fill, lead := cache.claim("k")
	if !lead {
		t.Fatal("first claim of an empty cache did not lead")
	}
	computes.Add(1)

	var joinErr error
	var joined bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, f, lead := cache.claim("k")
		if lead {
			computes.Add(1)
			t.Error("follower must not compute")
			return
		}
		joined = true
		_, joinErr = f.wait()
	}()

	// Hold the computation open until the follower's join is visible,
	// so the error demonstrably reaches a joined caller.
	for cache.Stats().Joins == 0 {
		time.Sleep(time.Millisecond)
	}
	cache.abandon("k", fill, boom)
	wg.Wait()
	if !joined || !errors.Is(joinErr, boom) {
		t.Errorf("follower: joined=%t err=%v, want shared boom", joined, joinErr)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	if _, ok := cache.Get("k"); ok {
		t.Error("a failed computation was cached")
	}
	if st := cache.Stats(); st.InFlight != 0 || st.Entries != 0 || st.Misses != 0 {
		t.Errorf("cache stats after a failed fill = %+v, want nothing in flight or stored", st)
	}
	if _, _, lead := cache.claim("k"); !lead {
		t.Error("lookup after a failed fill did not lead a new computation")
	}
}

// TestConcurrentCampaignsSingleFlight is the injector-level dedup
// audit: several campaigns over the same function set share one cache,
// and the cache's miss counter — the number of computations that
// actually ran — must equal the function count exactly. Run under
// -race (make serve-test / CI) this also audits the cache's
// single-flight synchronization.
func TestConcurrentCampaignsSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent campaigns")
	}
	cache := NewResultCache()
	names := cacheTestNames

	const campaigns = 4
	sigs := make([]string, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lib := clib.New()
			ext, err := extract.Run(corpus.Build(lib))
			if err != nil {
				t.Error(err)
				return
			}
			cfg := DefaultConfig()
			cfg.Cache = cache
			c, err := New(lib, cfg).InjectAll(ext, names)
			if err != nil {
				t.Error(err)
				return
			}
			sigs[i] = c.VectorSignature()
		}(i)
	}
	wg.Wait()

	st := cache.Stats()
	if st.Misses != int64(len(names)) {
		t.Errorf("cache misses = %d, want %d (no duplicate in-flight computation may both compute)",
			st.Misses, len(names))
	}
	if st.InFlight != 0 {
		t.Errorf("%d computations still in flight after all campaigns finished", st.InFlight)
	}
	// Every lookup was either a memory hit, a computation, or a join —
	// and they account for all campaigns' functions.
	total := st.Hits + st.Misses + st.Joins
	if want := int64(campaigns * len(names)); total != want {
		t.Errorf("hits(%d) + misses(%d) + joins(%d) = %d, want %d",
			st.Hits, st.Misses, st.Joins, total, want)
	}
	if st.Leads != st.Misses {
		t.Errorf("leads(%d) != misses(%d): a lead that did not fail must store its result", st.Leads, st.Misses)
	}
	for i := 1; i < campaigns; i++ {
		if sigs[i] != sigs[0] {
			t.Errorf("campaign %d diverged:\n%s", i, diffLines(sigs[0], sigs[i]))
		}
	}
}

// TestCacheKeyPinned pins the content address of one function under a
// cold and a seeded configuration. Persisted cache files are keyed by
// it, so a change to the fingerprint's inputs or format silently turns
// every warm entry into a miss.
func TestCacheKeyPinned(t *testing.T) {
	_, ext := freshExtraction(t)
	fi, ok := ext.Lookup("strcpy")
	if !ok {
		t.Fatal("strcpy not extracted")
	}
	cfg := DefaultConfig()
	if got, want := cacheKey(fi, cfg), "char* strcpy(char* dest, const char* src);|1a2bf661c9e068a5"; got != want {
		t.Errorf("cold key = %q, want %q", got, want)
	}
	cfg.Conservative = true
	cfg.Seeds = Seeds{"strcpy": {{Size: 6}, {ReadOnly: true}}}
	if got, want := cacheKey(fi, cfg), "char* strcpy(char* dest, const char* src);|ea162e1bb014a201"; got != want {
		t.Errorf("seeded key = %q, want %q", got, want)
	}
}
