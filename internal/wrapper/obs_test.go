package wrapper

import (
	"sync"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/obs"
)

// TestStatsSnapshotDuringCalls drives calls on one interposer while
// another goroutine polls Stats. Under -race this proves the snapshot
// path (atomic counter loads + locked violation copy) does not race
// with the call path's updates.
func TestStatsSnapshotDuringCalls(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())
	s := cstrAt(t, p, "hello")

	const calls = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < calls; i++ {
			ip.Call(p, "strlen", uint64(s))
			ip.Call(p, "strlen", 0xdead0000) // rejected: invalid C string
		}
	}()

	// Poll snapshots until the caller finishes; every snapshot must be
	// internally consistent even mid-call.
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		st := ip.Stats()
		if st.Rejected != len(st.Violations) {
			t.Fatalf("torn snapshot: rejected=%d violations=%d", st.Rejected, len(st.Violations))
		}
		if st.Checked > st.Calls {
			t.Fatalf("torn snapshot: checked=%d > calls=%d", st.Checked, st.Calls)
		}
	}

	st := ip.Stats()
	if st.Calls != 2*calls {
		t.Errorf("calls = %d, want %d", st.Calls, 2*calls)
	}
	if st.Rejected != calls {
		t.Errorf("rejected = %d, want %d", st.Rejected, calls)
	}
	if len(st.Violations) != calls {
		t.Errorf("violations = %d, want %d", len(st.Violations), calls)
	}
}

// TestConcurrentInterposersSharedObs attaches one interposer per
// goroutine (each with its own forked process — the simulated process
// is single-threaded) and drives them all through one shared tracer and
// registry. Under -race this proves the shared instrumentation is safe
// for concurrent wrapped calls, and the registry totals must equal the
// sum of the per-interposer snapshots.
func TestConcurrentInterposersSharedObs(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	collect := obs.NewCollectSink(128)
	tr := obs.New(collect)
	reg := obs.NewRegistry()

	const workers = 8
	const perWorker = 300
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := newProc()
			opts := DefaultOptions()
			opts.Obs = tr
			opts.Metrics = reg
			ip := Attach(p, lib, decls, opts)
			s, err := p.Mem.MmapRegion(16, cmem.ProtRW)
			if err != nil {
				t.Error(err)
				return
			}
			if f := p.Mem.WriteCString(s, "concurrent"); f != nil {
				t.Error(f)
				return
			}
			for i := 0; i < perWorker; i++ {
				ip.Call(p, "strlen", uint64(s))
				ip.Call(p, "strlen", 0xdead0000)
			}
			stats[w] = ip.Stats()
		}(w)
	}
	wg.Wait()

	var calls, rejected int64
	for _, st := range stats {
		calls += int64(st.Calls)
		rejected += int64(st.Rejected)
	}
	if calls != workers*perWorker*2 {
		t.Fatalf("summed calls = %d, want %d", calls, workers*perWorker*2)
	}
	if got := reg.Counter("healers_wrapper_calls_total").Value(); got != calls {
		t.Errorf("registry calls = %d, per-interposer sum = %d", got, calls)
	}
	if got := reg.Counter("healers_wrapper_rejected_total").Value(); got != rejected {
		t.Errorf("registry rejected = %d, per-interposer sum = %d", got, rejected)
	}
	if seen := uint64(len(collect.Events())) + collect.Dropped(); seen != tr.Seq() {
		t.Errorf("sink saw %d events, tracer emitted %d", seen, tr.Seq())
	}
}

// TestViolationEventCarriesErrnoAndPolicy checks that, routed through
// the tracer, a rejection carries the delivered errno and the policy.
func TestViolationEventCarriesErrnoAndPolicy(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	var events []obs.Event
	opts := DefaultOptions()
	opts.Obs = obs.New(obs.FuncSink(func(e obs.Event) { events = append(events, e) }))
	ip := Attach(p, lib, decls, opts)

	ip.Call(p, "asctime", 0xdead0000)

	var v *obs.Event
	for i := range events {
		if events[i].Kind == obs.KindCheckViolation {
			v = &events[i]
		}
	}
	if v == nil {
		t.Fatal("no CheckViolation event emitted")
	}
	if v.Func != "asctime" || v.Arg != 0 {
		t.Errorf("violation = %+v", v)
	}
	if v.Errno != csim.EINVAL || v.Err != "EINVAL" {
		t.Errorf("errno = %d %q, want EINVAL", v.Errno, v.Err)
	}
	if v.Policy != "return-error" {
		t.Errorf("policy = %q, want return-error", v.Policy)
	}
}

// TestWrapperCheckWorkHistogram checks the check-latency histogram sees
// one observation per checked call with plausible work values.
func TestWrapperCheckWorkHistogram(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Metrics = reg
	ip := Attach(p, lib, decls, opts)
	s := cstrAt(t, p, "twelve bytes")

	const n = 10
	for i := 0; i < n; i++ {
		ip.Call(p, "strlen", uint64(s))
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["healers_wrapper_check_work"]
	if !ok {
		t.Fatal("check-work histogram not registered")
	}
	if h.Count != n {
		t.Errorf("histogram count = %d, want %d (one per checked call)", h.Count, n)
	}
	// Each strlen check walks the 12 bytes plus the terminator at least
	// once, so the per-call work must be non-trivial.
	if h.Sum < n*13 {
		t.Errorf("histogram sum = %d, want >= %d", h.Sum, n*13)
	}
}
