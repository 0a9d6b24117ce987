package wrapper

import (
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/obs"
)

func benchSetup(b *testing.B, opts Options) (*csim.Process, *Interposer, cmem.Addr) {
	b.Helper()
	lib, decls := fullAutoDecls(b)
	fs := csim.NewFS()
	p := csim.NewProcess(fs)
	// Steps accumulate across all b.N iterations; the hang budget must
	// not fire mid-benchmark.
	p.SetStepBudget(1 << 62)
	ip := Attach(p, lib, decls, opts)
	s, err := p.Mem.MmapRegion(16, cmem.ProtRW)
	if err != nil {
		b.Fatal(err)
	}
	if f := p.Mem.WriteCString(s, "hello world"); f != nil {
		b.Fatal(f)
	}
	return p, ip, s
}

// BenchmarkWrapperCallOverhead compares the checked call path under the
// three observability states: the bare library, the wrapper with no
// instrumentation configured (a nil tracer is the disabled one), and a
// live tracer + registry.
func BenchmarkWrapperCallOverhead(b *testing.B) {
	b.Run("bare-library", func(b *testing.B) {
		p, ip, s := benchSetup(b, DefaultOptions())
		lib := ip.lib
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lib.Call(p, "strlen", uint64(s))
		}
	})
	b.Run("wrapped-nop", func(b *testing.B) {
		p, ip, s := benchSetup(b, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ip.Call(p, "strlen", uint64(s))
		}
	})
	b.Run("wrapped-instrumented", func(b *testing.B) {
		opts := DefaultOptions()
		opts.Obs = obs.New(obs.NewCollectSink(1024))
		opts.Metrics = obs.NewRegistry()
		p, ip, s := benchSetup(b, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ip.Call(p, "strlen", uint64(s))
		}
	})
}

// TestNopObservabilityAddsNoAllocations is the zero-alloc contract on
// the wrapper's nop path: a call through the wrapper with a disabled
// tracer and no registry must perform ZERO heap allocations — not
// "no more than the bare library", exactly zero. The wrapper holds the
// variadic argument slice in per-interposer scratch storage, so the
// caller-site slice stack-allocates; any regression (an event built
// outside the Enabled guard, a fmt.Sprintf on the hot path, the held
// slice escaping) trips this before it reaches a benchmark chart.
func TestNopObservabilityAddsNoAllocations(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	// The contract holds in every mode: the rescue paths sit behind the
	// failed-check branch, so a clean call never reaches them and the
	// mode dispatch itself must not allocate.
	for _, mode := range []Mode{ModeReject, ModeHeal, ModeIntrospect} {
		t.Run(mode.String(), func(t *testing.T) {
			p := newProc()
			s := cstrAt(t, p, "hello world")
			opts := DefaultOptions() // nil Obs: the disabled tracer
			opts.Mode = mode
			ip := Attach(p, lib, decls, opts)
			wrapped := testing.AllocsPerRun(500, func() {
				ip.Call(p, "strlen", uint64(s))
			})
			if wrapped != 0 {
				t.Fatalf("nop-instrumented wrapper allocates %v per call in mode %s, want exactly 0", wrapped, mode)
			}
		})
	}
}
