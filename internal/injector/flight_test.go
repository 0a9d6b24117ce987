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

// TestFlightDoDedupes starts many concurrent Do calls on one key and
// requires exactly one computation, with every caller sharing the
// leader's result pointer.
func TestFlightDoDedupes(t *testing.T) {
	fl := NewFlight()
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
			r, s, err := fl.Do("k", func() (*Result, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = r, s
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
	st := fl.Stats()
	if st.Leads != 1 || st.Joins != int64(callers-1) || st.InFlight != 0 {
		t.Errorf("flight stats = %+v, want 1 lead, %d joins, 0 in flight", st, callers-1)
	}
}

// TestFlightLeaderErrorPropagates requires a failed leader to deliver
// its error to every joined caller rather than letting them recompute.
func TestFlightLeaderErrorPropagates(t *testing.T) {
	fl := NewFlight()
	boom := errors.New("boom")
	var computes atomic.Int64
	started := make(chan struct{})

	var joinErr error
	var joined bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		_, joined, joinErr = fl.Do("k", func() (*Result, error) {
			computes.Add(1)
			return nil, errors.New("follower must not compute")
		})
	}()

	_, _, err := fl.Do("k", func() (*Result, error) {
		computes.Add(1)
		close(started)
		// Hold the flight open until the follower's join is visible, so
		// the error demonstrably reaches a joined caller.
		for fl.Stats().Joins == 0 {
			time.Sleep(time.Millisecond)
		}
		return nil, boom
	})
	if err != boom {
		t.Errorf("leader error = %v, want boom", err)
	}
	wg.Wait()
	if !joined || !errors.Is(joinErr, boom) {
		t.Errorf("follower: joined=%t err=%v, want shared boom", joined, joinErr)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
}

// TestConcurrentCampaignsSingleFlight is the injector-level dedup
// audit: several campaigns over the same function set share one cache
// and one flight group, and the cache's miss counter — the number of
// computations that actually ran — must equal the function count
// exactly. Run under -race (make serve-test / CI) this also audits the
// flight group's synchronization.
func TestConcurrentCampaignsSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent campaigns")
	}
	cache := NewResultCache()
	fl := NewFlight()
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
			cfg.Flight = fl
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
	fst := fl.Stats()
	if fst.InFlight != 0 {
		t.Errorf("%d computations still in flight after all campaigns finished", fst.InFlight)
	}
	// Every lookup was either a memory hit, a computation, or a flight
	// join — and they account for all campaigns' functions.
	total := st.Hits + st.Misses + fst.Joins
	if want := int64(campaigns * len(names)); total != want {
		t.Errorf("hits(%d) + misses(%d) + joins(%d) = %d, want %d",
			st.Hits, st.Misses, fst.Joins, total, want)
	}
	for i := 1; i < campaigns; i++ {
		if sigs[i] != sigs[0] {
			t.Errorf("campaign %d diverged:\n%s", i, diffLines(sigs[0], sigs[i]))
		}
	}
}
