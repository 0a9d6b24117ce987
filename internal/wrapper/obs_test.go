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
// registry, the workers spread over the three modes. Under -race this
// proves the shared instrumentation is safe for concurrent wrapped
// calls, and each of the eight event families must equal the sum of the
// per-interposer snapshots of its Stats counter.
func TestConcurrentInterposersSharedObs(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	collect := obs.NewCollectSink(128)
	tr := obs.New(collect)
	reg := obs.NewRegistry()

	const workers = 9
	const perWorker = 100
	modes := []Mode{ModeReject, ModeHeal, ModeIntrospect}
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
			opts.Mode = modes[w%len(modes)]
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
			arr, err := p.Mem.MmapRegion(8, cmem.ProtRW)
			if err != nil {
				t.Error(err)
				return
			}
			// A comparator that calls back through the wrapper: the
			// inner call is a reentrant one.
			cmp := p.RegisterCallback(func(pp *csim.Process, args []uint64) uint64 {
				ip.Call(pp, "strlen", uint64(s))
				return 0
			})
			tm := ip.Call(p, "malloc", 8) // passthru; smaller than asctime's 44
			for i := 0; i < perWorker; i++ {
				p.Run(func() uint64 { return ip.Call(p, "strlen", uint64(s)) })
				p.Run(func() uint64 { return ip.Call(p, "strlen", 0xdead0000) })
				p.Run(func() uint64 { return ip.Call(p, "asctime", tm) })
				p.Run(func() uint64 { return ip.Call(p, "qsort", uint64(arr), 2, 4, uint64(cmp)) })
			}
			stats[w] = ip.Stats()
		}(w)
	}
	wg.Wait()

	var sum [8]int64
	for _, st := range stats {
		for i, v := range []int{st.Calls, st.Checked, st.Rejected, st.Passthru,
			st.Reentrant, st.ChecksRun, st.Healed, st.FalseRejectAvoided} {
			sum[i] += int64(v)
		}
	}
	families := []string{"calls", "checked", "rejected", "passthru",
		"reentrant", "checks_run", "healed", "false_reject_avoided"}
	for i, fam := range families {
		name := "healers_wrapper_" + fam + "_total"
		if sum[i] == 0 {
			t.Errorf("no interposer counted %s; the workload exercises nothing", fam)
		}
		if got := reg.Counter(name).Value(); got != sum[i] {
			t.Errorf("%s = %d, per-interposer sum = %d", name, got, sum[i])
		}
	}
	if want := int64(1+5*perWorker) * workers; sum[0] != want {
		t.Errorf("summed calls = %d, want %d", sum[0], want)
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
